package tso

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProgram spawns `threads` threads that perform a random mix of
// machine actions over a small address range, then checks the recorded
// trace with the independent oracle.
func runRandomProgram(t *testing.T, seed int64, policy DrainPolicy, delta uint64, threads int) {
	t.Helper()
	rec := &Recorder{}
	m := New(Config{Delta: delta, Policy: policy, Seed: seed, Sinks: []Sink{rec}, MaxTicks: 500_000})
	base := m.AllocWords(8)
	for i := 0; i < threads; i++ {
		progSeed := seed*977 + int64(i)
		m.Spawn("w", func(th *Thread) {
			rng := rand.New(rand.NewSource(progSeed))
			for k := 0; k < 60; k++ {
				a := base + Addr(rng.Intn(8))
				switch rng.Intn(10) {
				case 0, 1, 2:
					th.Store(a, Word(rng.Intn(100)))
				case 3, 4, 5, 6:
					th.Load(a)
				case 7:
					th.CAS(a, Word(rng.Intn(4)), Word(rng.Intn(100)))
				case 8:
					th.FetchAdd(a, 1)
				default:
					th.Fence()
				}
			}
		})
	}
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("seed=%d policy=%v Δ=%d: run: %v", seed, policy, delta, res.Err)
	}
	if err := CheckTrace(rec.Events, threads, delta); err != nil {
		t.Fatalf("seed=%d policy=%v Δ=%d: oracle rejected trace: %v", seed, policy, delta, err)
	}
}

func TestRandomProgramsSatisfyOracle(t *testing.T) {
	for _, policy := range []DrainPolicy{DrainEager, DrainRandom, DrainAdversarial} {
		for _, delta := range []uint64{0, 120} {
			for seed := int64(0); seed < 8; seed++ {
				runRandomProgram(t, seed, policy, delta, 3)
			}
		}
	}
}

func TestQuickRandomProgramsSatisfyOracle(t *testing.T) {
	f := func(seed int64, policyRaw, threadsRaw uint8) bool {
		policy := DrainPolicy(int(policyRaw) % 3)
		threads := int(threadsRaw)%3 + 1
		rec := &Recorder{}
		m := New(Config{Delta: 90, Policy: policy, Seed: seed, Sinks: []Sink{rec}, MaxTicks: 500_000})
		base := m.AllocWords(4)
		for i := 0; i < threads; i++ {
			progSeed := seed ^ int64(i)<<32
			m.Spawn("w", func(th *Thread) {
				rng := rand.New(rand.NewSource(progSeed))
				for k := 0; k < 30; k++ {
					a := base + Addr(rng.Intn(4))
					switch rng.Intn(8) {
					case 0, 1, 2:
						th.Store(a, Word(k))
					case 3, 4, 5:
						th.Load(a)
					default:
						th.Swap(a, Word(k))
					}
				}
			})
		}
		if res := m.Run(); res.Err != nil {
			return false
		}
		return CheckTrace(rec.Events, threads, 90) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"commit without store", []Event{
			{Tick: 1, Thread: 0, Kind: EvCommit, Addr: 1, Val: 5},
		}},
		{"FIFO violation", []Event{
			{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 5},
			{Tick: 2, Thread: 0, Kind: EvStore, Addr: 2, Val: 6},
			{Tick: 3, Thread: 0, Kind: EvCommit, Addr: 2, Val: 6},
		}},
		{"load from thin air", []Event{
			{Tick: 1, Thread: 0, Kind: EvLoad, Addr: 1, Val: 99},
		}},
		{"stale load ignoring forwarding", []Event{
			{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 5},
			{Tick: 2, Thread: 0, Kind: EvLoad, Addr: 1, Val: 0},
		}},
		{"fence with pending stores", []Event{
			{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 5},
			{Tick: 2, Thread: 0, Kind: EvFence},
		}},
		{"rmw with pending stores", []Event{
			{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 5},
			{Tick: 2, Thread: 0, Kind: EvRMW, Addr: 2, Val: 1},
		}},
	}
	for _, tc := range cases {
		if err := CheckTrace(tc.events, 1, 0); err == nil {
			t.Fatalf("%s: oracle accepted a bad trace", tc.name)
		}
	}
}

func TestOracleDeltaCheck(t *testing.T) {
	events := []Event{
		{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 5},
		{Tick: 500, Thread: 0, Kind: EvCommit, Addr: 1, Val: 5},
	}
	if err := CheckTrace(events, 1, 100); err == nil {
		t.Fatal("oracle accepted a commit past Δ")
	}
	if err := CheckTrace(events, 1, 0); err != nil {
		t.Fatalf("unbounded TSO should accept late commits: %v", err)
	}
}
