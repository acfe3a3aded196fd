package mc

import "strconv"

// This file is the ORIGINAL sequential explorer, kept as the reference
// oracle for the parallel engine in explore.go. It shares no hot-path
// code with that engine, so the differential tests (differential_test.go)
// pin the two to each other: even its memo key is a decimal text form
// built here (appendKey), independent of encode.go's compact encoding.
// The key is the one part made cheap — strconv into one reused buffer,
// byte-identical to the fmt rendering TestAppendKeyMatchesFmt keeps as
// its oracle. Everything else is
// deliberately naive — recursive DFS, a full-state clone per transition
// — and stays that way; speed lives in explore.go.

// appendKey appends the state's canonical text key for the reference
// explorer's memo table, e.g. "p1.0.false;0=1@2,|0,0,;" per thread
// followed by "0.1." for memory.
func (s *state) appendKey(dst []byte) []byte {
	for i := range s.pc {
		dst = append(dst, 'p')
		dst = strconv.AppendInt(dst, int64(s.pc[i]), 10)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(s.wait[i]), 10)
		dst = append(dst, '.')
		dst = strconv.AppendBool(dst, s.armed[i])
		dst = append(dst, ';')
		for _, e := range s.bufs[i] {
			dst = strconv.AppendInt(dst, int64(e.addr), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(e.val), 10)
			dst = append(dst, '@')
			dst = strconv.AppendInt(dst, int64(e.age), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, '|')
		for _, r := range s.regs[i] {
			dst = strconv.AppendInt(dst, int64(r), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, ';')
	}
	for _, v := range s.mem {
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, '.')
	}
	return dst
}

// ExploreSequential is the reference explorer: single-threaded DFS with
// no reduction, enumerating every interleaving and drain schedule. It
// panics if the state space exceeds DefaultMaxStates. The parallel
// engine must produce exactly this outcome set (its States count is
// smaller when reductions collapse equivalent schedules).
func ExploreSequential(p Program, delta int) Result {
	res, err := ExploreSequentialBounded(p, delta, DefaultMaxStates)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// ExploreSequentialBounded is ExploreSequential with an explicit state
// budget; a non-nil error is a *TruncatedError and res holds the
// partial outcome set (absence proves nothing).
func ExploreSequentialBounded(p Program, delta, maxStates int) (res Result, err error) {
	if len(p.Threads) == 0 {
		return Result{Outcomes: map[string]bool{"": true}, States: 1}, nil
	}
	res = Result{Outcomes: map[string]bool{}}
	complete := true
	seen := map[string]bool{}
	ageCap := delta + 1
	if delta == 0 {
		ageCap = 0 // ages are irrelevant without a bound; keep them 0
	}

	var key []byte // reused: only a novel key is copied, into seen
	var dfs func(s *state)
	dfs = func(s *state) {
		if res.States >= maxStates {
			complete = false
			return
		}
		key = s.appendKey(key[:0])
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		res.States++

		// Forced dequeues: under TBTSO[Δ] an entry at age ≥ Δ must
		// leave before anything else happens.
		if delta > 0 {
			forced := false
			for i := range s.bufs {
				if len(s.bufs[i]) > 0 && s.bufs[i][0].age >= delta {
					forced = true
					n := s.clone()
					e := n.bufs[i][0]
					n.bufs[i] = n.bufs[i][1:]
					n.mem[e.addr] = e.val
					n.ageAll(ageCap)
					dfs(n)
				}
			}
			if forced {
				return // only forced transitions are admissible here
			}
		}

		progress := false
		for i, ops := range p.Threads {
			// Voluntary dequeue.
			if len(s.bufs[i]) > 0 {
				progress = true
				n := s.clone()
				e := n.bufs[i][0]
				n.bufs[i] = n.bufs[i][1:]
				n.mem[e.addr] = e.val
				n.ageAll(ageCap)
				dfs(n)
			}
			if s.pc[i] >= len(ops) {
				continue
			}
			op := ops[s.pc[i]]
			switch op.Kind {
			case OpStore:
				progress = true
				n := s.clone()
				n.bufs[i] = append(n.bufs[i], bufEntry{addr: op.Addr, val: op.Val})
				n.pc[i]++
				n.ageAll(ageCap)
				dfs(n)
			case OpLoad:
				progress = true
				n := s.clone()
				v := n.mem[op.Addr]
				for j := len(n.bufs[i]) - 1; j >= 0; j-- {
					if n.bufs[i][j].addr == op.Addr {
						v = n.bufs[i][j].val
						break
					}
				}
				n.regs[i][op.Reg] = v
				n.pc[i]++
				n.ageAll(ageCap)
				dfs(n)
			case OpFence:
				if len(s.bufs[i]) == 0 {
					progress = true
					n := s.clone()
					n.pc[i]++
					n.ageAll(ageCap)
					dfs(n)
				}
			case OpRMW:
				if len(s.bufs[i]) == 0 {
					progress = true
					n := s.clone()
					old := n.mem[op.Addr]
					n.regs[i][op.Reg] = old
					n.mem[op.Addr] = old + op.Val
					n.pc[i]++
					n.ageAll(ageCap)
					dfs(n)
				}
			case OpWait:
				progress = true
				n := s.clone()
				switch {
				case !n.armed[i] && op.Val > 0:
					// Arm the wait; it elapses as transitions occur.
					n.armed[i] = true
					n.wait[i] = op.Val
				case n.wait[i] == 0:
					// Elapsed (or zero-length): advance.
					n.armed[i] = false
					n.pc[i]++
				default:
					// Still pending: burn one transition.
				}
				n.ageAll(ageCap)
				dfs(n)
			}
		}
		if !progress {
			// Terminal: flush any remaining buffers already handled by
			// the dequeue transitions above; with empty buffers and all
			// pcs done, record the outcome.
			done := true
			for i := range p.Threads {
				if s.pc[i] < len(p.Threads[i]) || len(s.bufs[i]) > 0 {
					done = false
				}
			}
			if done {
				res.Outcomes[s.outcome()] = true
			}
		}
	}
	dfs(newState(p))
	if !complete {
		return res, &TruncatedError{MaxStates: maxStates, States: res.States, Shape: p.shape(delta), Partial: res}
	}
	return res, nil
}
