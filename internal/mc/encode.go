package mc

import "encoding/binary"

// Compact binary state encoding. A state serializes to an append-only
// byte string: per thread (pc, wait, armed, buffer length, buffer
// entries, registers), then memory. Small non-negative fields use
// unsigned varints; values that may be negative (register/memory words,
// buffered values) use zigzag varints. The encoding is canonical —
// equal states encode to equal bytes — so it doubles as the visited-set
// key, and it is losslessly decodable so the frontier holds the visited
// set's arena copies of encodings (visited.go) and workers rehydrate
// them into reusable scratch structs.
//
// A litmus-sized state fits in a few dozen bytes versus a few hundred
// for the reference explorer's decimal text key, and encoding is a
// single append pass with no formatting or interface boxing.

// appendThread appends thread i's local state (everything except
// shared memory). Split out so symmetry canonicalization can compare
// thread-local encodings (reduce.go).
func (s *state) appendThread(dst []byte, i int) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.pc[i]))
	dst = binary.AppendUvarint(dst, uint64(s.wait[i]))
	if s.armed[i] {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.bufs[i])))
	for _, e := range s.bufs[i] {
		dst = binary.AppendUvarint(dst, uint64(e.addr))
		dst = binary.AppendVarint(dst, int64(e.val))
		dst = binary.AppendUvarint(dst, uint64(e.age))
	}
	for _, r := range s.regs[i] {
		dst = binary.AppendVarint(dst, int64(r))
	}
	return dst
}

// appendState appends the full canonical encoding of s.
func (s *state) appendState(dst []byte) []byte {
	for i := range s.pc {
		dst = s.appendThread(dst, i)
	}
	for _, v := range s.mem {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// uvarint and varint read one varint of src at pos and return it with
// the position after it.
func uvarint(src []byte, pos int) (uint64, int) {
	x, n := binary.Uvarint(src[pos:])
	if n <= 0 {
		panic("mc: truncated state encoding")
	}
	return x, pos + n
}

func varint(src []byte, pos int) (int64, int) {
	x, n := binary.Varint(src[pos:])
	if n <= 0 {
		panic("mc: truncated state encoding")
	}
	return x, pos + n
}

// decodeState rehydrates src (produced by appendState for a state of
// program p) into dst, reusing dst's slice capacity.
func decodeState(dst *state, p Program, src []byte) {
	nt := len(p.Threads)
	dst.pc = grow(dst.pc, nt)
	dst.wait = grow(dst.wait, nt)
	if cap(dst.armed) < nt {
		dst.armed = make([]bool, nt)
	}
	dst.armed = dst.armed[:nt]
	if cap(dst.bufs) < nt {
		dst.bufs = make([][]bufEntry, nt)
	}
	dst.bufs = dst.bufs[:nt]
	if cap(dst.regs) < nt {
		dst.regs = make([][]int, nt)
	}
	dst.regs = dst.regs[:nt]
	dst.mem = grow(dst.mem, p.Vars)

	pos := 0
	var u uint64
	var v int64
	for i := 0; i < nt; i++ {
		u, pos = uvarint(src, pos)
		dst.pc[i] = int(u)
		u, pos = uvarint(src, pos)
		dst.wait[i] = int(u)
		dst.armed[i] = src[pos] != 0
		pos++
		u, pos = uvarint(src, pos)
		n := int(u)
		if cap(dst.bufs[i]) < n {
			dst.bufs[i] = make([]bufEntry, n)
		}
		dst.bufs[i] = dst.bufs[i][:n]
		for j := 0; j < n; j++ {
			u, pos = uvarint(src, pos)
			dst.bufs[i][j].addr = int(u)
			v, pos = varint(src, pos)
			dst.bufs[i][j].val = int(v)
			u, pos = uvarint(src, pos)
			dst.bufs[i][j].age = int(u)
		}
		dst.regs[i] = grow(dst.regs[i], p.Regs)
		for r := 0; r < p.Regs; r++ {
			v, pos = varint(src, pos)
			dst.regs[i][r] = int(v)
		}
	}
	for a := 0; a < p.Vars; a++ {
		v, pos = varint(src, pos)
		dst.mem[a] = int(v)
	}
	if pos != len(src) {
		panic("mc: trailing bytes in state encoding")
	}
}

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// appendRegs encodes the per-thread register files alone — the compact
// form outcomes are accumulated in before orbit expansion and
// stringification (explore.go).
func appendRegs(dst []byte, regs [][]int) []byte {
	for _, rf := range regs {
		for _, r := range rf {
			dst = binary.AppendVarint(dst, int64(r))
		}
	}
	return dst
}

// decodeRegs is the inverse of appendRegs for a program with nt
// threads of nr registers each.
func decodeRegs(src []byte, nt, nr int) [][]int {
	out := make([][]int, nt)
	pos := 0
	var v int64
	for i := range out {
		out[i] = make([]int, nr)
		for r := 0; r < nr; r++ {
			v, pos = varint(src, pos)
			out[i][r] = int(v)
		}
	}
	return out
}
