package mc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fmtKey is the reference explorer's original fmt-built memo key, kept
// as the oracle appendKey must reproduce byte for byte.
func fmtKey(s *state) string {
	var b strings.Builder
	for i := range s.pc {
		fmt.Fprintf(&b, "p%d.%d.%v;", s.pc[i], s.wait[i], s.armed[i])
		for _, e := range s.bufs[i] {
			fmt.Fprintf(&b, "%d=%d@%d,", e.addr, e.val, e.age)
		}
		b.WriteByte('|')
		for _, r := range s.regs[i] {
			fmt.Fprintf(&b, "%d,", r)
		}
		b.WriteByte(';')
	}
	for _, v := range s.mem {
		fmt.Fprintf(&b, "%d.", v)
	}
	return b.String()
}

// TestAppendKeyMatchesFmt keeps the reference explorer's memo keys
// exactly what they were when fmt built them: random states (negative
// words, armed waits, multi-entry buffers, ages past Δ) plus the int
// extremes must render identically.
func TestAppendKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for seed := int64(0); seed < 500; seed++ {
		s := randomState(genProgram(seed), rng)
		if seed%50 == 0 {
			s.mem[0] = math.MinInt
			s.regs[0][0] = math.MaxInt
		}
		buf = s.appendKey(buf[:0])
		if want := fmtKey(s); string(buf) != want {
			t.Fatalf("seed=%d: appendKey = %q, fmt key = %q", seed, buf, want)
		}
	}
}

// TestVisitedSet drives one visited set through slot-table growth, a
// key too long for any ordinary chunk, and reset: every key is novel
// exactly once per generation, the handed-out arena copies hold the
// key's bytes and cannot be appended into, and a reset set retains only
// its bounded first chunk and slot table.
func TestVisitedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var keys [][]byte
	for i := 0; i < 20000; i++ {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		keys = append(keys, k)
	}
	keys = append(keys, bytes.Repeat([]byte{7}, chunkSize+100))
	v := newVisited()
	for gen := 0; gen < 2; gen++ {
		seen := map[string]bool{}
		var held [][]byte
		for _, k := range keys {
			got, novel := v.insert(k)
			if novel == seen[string(k)] {
				t.Fatalf("gen %d: key %x novel=%v, already seen=%v", gen, k, novel, seen[string(k)])
			}
			if novel {
				seen[string(k)] = true
				if !bytes.Equal(got, k) || cap(got) != len(got) {
					t.Fatalf("gen %d: arena copy %x (cap %d), want %x at full capacity", gen, got, cap(got), k)
				}
				held = append(held, got)
			}
		}
		for _, k := range keys {
			if _, novel := v.insert(k); novel {
				t.Fatalf("gen %d: key %x novel on re-insert", gen, k)
			}
		}
		n := 0
		for _, k := range keys {
			if seen[string(k)] {
				if !bytes.Equal(held[n], k) {
					t.Fatalf("gen %d: arena copy %d changed to %x, want %x", gen, n, held[n], k)
				}
				n++
				delete(seen, string(k))
			}
		}
		v.reset()
		for i := range v.shards {
			sh := &v.shards[i]
			if len(sh.slots) > slotsKeepMax || sh.used != 0 || len(sh.chunks) > 1 ||
				(len(sh.chunks) == 1 && (cap(sh.chunks[0]) != chunkSize || len(sh.chunks[0]) != 0)) {
				t.Fatalf("gen %d: shard %d retains %d slots, %d used, %d chunks after reset",
					gen, i, len(sh.slots), sh.used, len(sh.chunks))
			}
		}
	}
}

// TestExploreAllocs caps the allocations of one warmed-up exploration
// (the visited set comes from the pool, so its tables are already
// there): what remains is per-exploration set-up and the outcome merge,
// nothing per state.
func TestExploreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, c := range []struct {
		name  string
		p     Program
		delta int
		max   float64
	}{
		{"SB/delta=0", sb(false), 0, 100},
		{"Ring3/delta=3", ringProg(3), 3, 1500},
	} {
		explore := func() {
			if _, err := ExploreParallel(c.p, c.delta, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		// AllocsPerRun warms up with one untimed run of its own.
		got := testing.AllocsPerRun(5, explore)
		t.Logf("%s: %.0f allocations per exploration", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocations per exploration, want ≤ %.0f", c.name, got, c.max)
		}
	}
}

// TestPoolReuseIsolation interleaves explorations of different programs
// from several goroutines, so pooled visited sets pass between
// programs, sizes and worker counts — including explorations cut short
// by the state budget and by cancellation. Every completed exploration
// must reproduce an isolated run exactly; a frontier slice outliving
// its exploration's arena would corrupt some later exploration's
// states and show up here as a count or outcome mismatch.
func TestPoolReuseIsolation(t *testing.T) {
	type job struct {
		name  string
		p     Program
		delta int
	}
	jobs := []job{
		{"SB", sb(false), 0},
		{"IRIW", iriwProg(), 2},
		{"Ring3", ringProg(3), 3},
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		res, err := ExploreParallel(j.p, j.delta, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = res
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := Options{Workers: 1 + g%3}
			for r := 0; r < rounds; r++ {
				switch k := (g + r) % (len(jobs) + 2); k {
				case len(jobs):
					const budget = 300
					_, err := ExploreParallel(interruptProg(), 1, Options{MaxStates: budget, Workers: opts.Workers})
					var te *TruncatedError
					if !errors.As(err, &te) || te.States != budget {
						t.Errorf("g%d r%d truncated: err = %v, want States == %d", g, r, err, budget)
					}
				case len(jobs) + 1:
					_, err := ExploreParallel(interruptProg(), 1, Options{Context: cancelled, Workers: opts.Workers})
					if !errors.Is(err, ErrInterrupted) {
						t.Errorf("g%d r%d cancelled: err = %v, want ErrInterrupted", g, r, err)
					}
				default:
					j := jobs[k]
					got, err := ExploreParallel(j.p, j.delta, opts)
					if err != nil {
						t.Errorf("g%d r%d %s: %v", g, r, j.name, err)
						continue
					}
					w := want[k]
					if got.States != w.States || got.Transitions != w.Transitions || got.DedupHits != w.DedupHits ||
						!reflect.DeepEqual(got.List(), w.List()) {
						t.Errorf("g%d r%d %s: states/transitions/dedup %d/%d/%d outcomes %v, want %d/%d/%d %v",
							g, r, j.name, got.States, got.Transitions, got.DedupHits, got.List(),
							w.States, w.Transitions, w.DedupHits, w.List())
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
