package mc

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"
)

// visited is the sharded de-duplication set at the heart of the
// parallel engine: a power-of-two array of shards, each behind its own
// mutex. A state's encoding is hashed once with maphash; the top bits
// pick the shard and the next visitedHashBits bits both place it in the
// shard's open-addressing slot table and filter probes. Workers touch
// one shard per lookup, so with 64 shards contention is negligible even
// at full-core fan-out.
//
// Keys live in a per-shard append-only arena of fixed-capacity byte
// chunks, each key behind a uvarint length prefix. A chunk is never
// reallocated and written bytes never change, so insert hands out
// cap-limited sub-slices of the arena that the frontier stacks hold as
// they are: a novel state costs no allocation beyond the arena's
// occasional new chunk. Those slices are valid until reset, which
// ExploreParallel calls only after every worker has finished.
type visited struct {
	seed   maphash.Seed
	shards [visitedShards]visitedShard
}

const (
	visitedShards     = 64 // power of two
	visitedShardShift = 64 - 6

	// A slot is 0 when empty; otherwise slotUsed | hash<<33 | chunk<<13 | off.
	visitedHashBits  = 30
	visitedChunkBits = 20
	visitedOffBits   = 13
	slotUsed         = 1 << 63
	slotHashShift    = visitedChunkBits + visitedOffBits

	// Arena chunks hold chunkSize bytes, so a half-used last chunk
	// wastes little; a key that does not fit in one gets a chunk of its
	// own.
	chunkSize = 1 << visitedOffBits

	slotsMin = 32
	// reset keeps a shard's slot table only up to this many slots, and
	// only its first chunk, so a pooled set retains at most 40 KiB per
	// shard however large its last exploration was.
	slotsKeepMax = 4096
)

type visitedShard struct {
	mu     sync.Mutex
	slots  []uint64 // open addressing, linear probing, len a power of two
	used   int      // occupied slots
	shift  uint     // visitedHashBits - log2(len(slots))
	chunks [][]byte // the arena; only the last chunk has free capacity
	// Pad each shard past its own cache line so neighbouring locks don't
	// false-share.
	_ [64]byte
}

func newVisited() *visited {
	return &visited{seed: maphash.MakeSeed()}
}

// visitedPool recycles visited sets across explorations, so a caller
// running many small explorations pays the shards' tables and first
// chunks once rather than per call.
var visitedPool = sync.Pool{New: func() any { return newVisited() }}

// insert adds the encoded state if absent. It returns the arena copy of
// the key (a cap-limited slice, valid until reset) and whether the
// state was novel.
func (v *visited) insert(b []byte) (key []byte, novel bool) {
	h := maphash.Bytes(v.seed, b)
	sh := &v.shards[h>>visitedShardShift]
	hb := h << (64 - visitedShardShift) >> (64 - visitedHashBits)
	sh.mu.Lock()
	key, novel = sh.insert(b, hb)
	sh.mu.Unlock()
	return key, novel
}

func (sh *visitedShard) insert(b []byte, hb uint64) ([]byte, bool) {
	if sh.slots == nil {
		sh.setSlots(make([]uint64, slotsMin))
	}
	mask := uint64(len(sh.slots) - 1)
	for i := hb >> sh.shift; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			key, ref := sh.store(b)
			sh.slots[i] = slotUsed | hb<<slotHashShift | ref
			if sh.used++; sh.used*4 >= len(sh.slots)*3 {
				sh.grow()
			}
			return key, true
		}
		if s>>slotHashShift&(1<<visitedHashBits-1) == hb && bytes.Equal(sh.key(s), b) {
			return nil, false
		}
	}
}

// setSlots installs a slot table; a slot's first probe position is
// the top log2(len(slots)) bits of its hash bits.
func (sh *visitedShard) setSlots(slots []uint64) {
	sh.slots = slots
	sh.shift = visitedHashBits
	for n := len(slots); n > 1; n >>= 1 {
		sh.shift--
	}
}

// grow doubles the slot table, re-placing every slot by its stored hash
// bits; keys are neither rehashed nor moved.
func (sh *visitedShard) grow() {
	old := sh.slots
	sh.setSlots(make([]uint64, 2*len(old)))
	mask := uint64(len(sh.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := s >> slotHashShift & (1<<visitedHashBits - 1) >> sh.shift
		for sh.slots[i] != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
	}
}

// key returns the arena bytes a slot refers to.
func (sh *visitedShard) key(s uint64) []byte {
	c := sh.chunks[s>>visitedOffBits&(1<<visitedChunkBits-1)]
	off := int(s & (chunkSize - 1))
	n, k := binary.Uvarint(c[off:])
	start := off + k
	return c[start : start+int(n)]
}

// store appends b, length-prefixed, to the arena and returns the arena
// copy and its slot reference (chunk index and offset).
func (sh *visitedShard) store(b []byte) ([]byte, uint64) {
	need := binary.MaxVarintLen64 + len(b)
	nc := len(sh.chunks)
	// An oversized chunk holds its one key and takes no more: its free
	// tail would sit beyond the addressable offsets.
	if nc == 0 || cap(sh.chunks[nc-1])-len(sh.chunks[nc-1]) < need || len(sh.chunks[nc-1]) >= chunkSize {
		if nc >= 1<<visitedChunkBits {
			panic("mc: visited shard exceeds its arena limit")
		}
		sh.chunks = append(sh.chunks, make([]byte, 0, max(chunkSize, need)))
		nc++
	}
	c := sh.chunks[nc-1]
	off := len(c)
	c = binary.AppendUvarint(c, uint64(len(b)))
	start := len(c)
	c = append(c, b...)
	sh.chunks[nc-1] = c
	end := len(c)
	return c[start:end:end], uint64(nc-1)<<visitedOffBits | uint64(off)
}

// reset empties the set for reuse, keeping at most a first chunk of
// chunkSize bytes and a slot table of slotsKeepMax slots per shard; anything
// larger goes to the GC. No key slice handed out before the reset may
// be used after it.
func (v *visited) reset() {
	for i := range v.shards {
		sh := &v.shards[i]
		if len(sh.slots) > slotsKeepMax {
			sh.slots = nil
		} else {
			clear(sh.slots)
		}
		sh.used = 0
		var first []byte
		if len(sh.chunks) > 0 && cap(sh.chunks[0]) == chunkSize {
			first = sh.chunks[0][:0]
		}
		clear(sh.chunks)
		sh.chunks = sh.chunks[:0]
		if cap(sh.chunks) > 8 {
			sh.chunks = nil
		}
		if first != nil {
			sh.chunks = append(sh.chunks, first)
		}
	}
}
