package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"tbtso/internal/machalg"
	"tbtso/internal/mc"
)

// fragment is one certification-scale exploration with the counts a
// correct one produces. The explorer documents states, transitions and
// reduction counters as deterministic for a completed exploration.
type fragment struct {
	name  string
	prog  mc.Program
	delta int
	want  mcCounts
	outs  int
	// bad reports an outcome that witnesses a safety violation.
	bad func(outcome string) bool
}

// mcMaxStates leaves the fragments' exhaustive explorations unbounded in
// practice.
const mcMaxStates = 4_000_000

func ffhpFragment() fragment {
	return fragment{
		name: "ffhp", prog: machalg.MCFFHP(3, 2, 4), delta: 3,
		want: mcCounts{States: 531_248, Transitions: 1_087_862, DedupHits: 556_615, PorPrunes: 0, TerminalCollapses: 5_396},
		outs: 5041,
		bad:  func(o string) bool { return machalg.MCFFHPMissed(o, 3, 2) },
	}
}

func ffblFragment() fragment {
	return fragment{
		name: "ffbl", prog: machalg.MCFFBL(4, 3), delta: 2,
		want: mcCounts{States: 248_291, Transitions: 650_428, DedupHits: 402_138, PorPrunes: 0, TerminalCollapses: 612},
		outs: 816,
		bad:  func(o string) bool { return machalg.MCFFBLOverlap(o, 4) },
	}
}

const violationMsg = "violation outcome"

// gate checks one exploration of f; it returns the reasons it failed.
func (f fragment) gate(res mc.Result, err error) []string {
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", f.name, err)}
	}
	var why []string
	if got := countsOf(res); got != f.want {
		why = append(why, fmt.Sprintf("%s: counters %+v, want %+v", f.name, got, f.want))
	}
	if len(res.Outcomes) != f.outs {
		why = append(why, fmt.Sprintf("%s: %d outcomes, want %d", f.name, len(res.Outcomes), f.outs))
	}
	for o := range res.Outcomes {
		if f.bad(o) {
			why = append(why, fmt.Sprintf("%s: %s %q", f.name, violationMsg, o))
			break
		}
	}
	return why
}

func (f fragment) explore() (mc.Result, error) {
	return mc.ExploreParallel(f.prog, f.delta, mc.Options{MaxStates: mcMaxStates})
}

type deep struct {
	frags [2]fragment
	warm  []string // gate failures of the warm-up exploration
}

// setupDeep builds both fragments and explores the smaller one once, so
// the timed loop starts with a grown heap and settled GC pacing.
func setupDeep() (*deep, error) {
	d := &deep{frags: [2]fragment{ffhpFragment(), ffblFragment()}}
	f := d.frags[1]
	d.warm = f.gate(f.explore())
	return d, nil
}

// deepStats is what a run of the exploration loop measured.
type deepStats struct {
	order    []int         // fragment index of each exploration
	pairs    []float64     // steal-adjusted seconds per pair of explorations
	rawPairs []float64     // the same in wall time
	explore  time.Duration // inside ExploreParallel
	wall     time.Duration // whole loop, gates included
	adj      time.Duration // the same, steal-adjusted
	failed   int64
	problems []string
	states   int
	mem      memDelta
	perFrag  [2]mc.Result
}

// loop explores the fragments alternately, in seed-chosen order, until
// budget has passed at the end of a pair (maxOps > 0 caps the count
// instead). Each exploration starts from a collected heap, as in a fresh
// process, so peak memory does not depend on where the previous one
// left the GC cycle; the collection is timed with it. The outcome gate
// is not timed. With tr set, each exploration and its gate run under
// spans.
func (d *deep) loop(seed int64, budget time.Duration, maxOps int, tr *tracer) deepStats {
	var st deepStats
	first := int(seed & 1)
	m0 := readMem()
	t0 := time.Now()
	whole := startWatch()
	for i := 0; ; i++ {
		if maxOps > 0 && i == maxOps {
			break
		}
		if maxOps == 0 && i%2 == 0 && time.Since(t0) >= budget {
			break
		}
		fi := (first + i) % 2
		f := d.frags[fi]
		if tr != nil {
			tr.begin("mc.fragment", int64(i))
		}
		w := startWatch()
		runtime.GC()
		if tr != nil {
			tr.begin("mc.explore_parallel", -1)
		}
		res, err := f.explore()
		if tr != nil {
			tr.end()
		}
		wall, adj := w.stop()
		st.explore += wall
		if i%2 == 0 {
			st.pairs = append(st.pairs, 0)
			st.rawPairs = append(st.rawPairs, 0)
		}
		st.pairs[len(st.pairs)-1] += adj.Seconds()
		st.rawPairs[len(st.rawPairs)-1] += wall.Seconds()
		if tr != nil {
			tr.begin("gate.check", -1)
		}
		if why := f.gate(res, err); len(why) > 0 {
			st.failed++
			st.problems = append(st.problems, why...)
		}
		if tr != nil {
			tr.end()
			tr.end()
		}
		st.order = append(st.order, fi)
		st.states += res.States
		if st.perFrag[fi].States == 0 {
			st.perFrag[fi] = res
		}
	}
	st.wall, st.adj = whole.stop()
	st.mem = readMem().sub(m0)
	return st
}

func runMCDeep(p params) (*run, error) {
	d, setupS, err := timedSetup(setupDeep)
	if err != nil {
		return nil, err
	}
	r := &run{}
	for _, w := range d.warm {
		r.fail("warm-up: %s", w)
	}
	budget := time.Duration(p.seconds * float64(time.Second))
	if !p.traced {
		st := d.loop(p.seed, budget, 0, nil)
		r.attempted, r.failed = int64(len(st.order)), st.failed
		r.problems = append(r.problems, st.problems...)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		// Median pair time, so a burst of outside load on a shared
		// host moves the figure only if it covers most of the run.
		r.set("ops_per_s", "1/s", 2/median(st.pairs))
		fmt.Fprintf(os.Stderr, "perfbench: mc-deep %.4g fragments/s in wall time\n", 2/median(st.rawPairs))
		r.set("setup_s", "s", setupS)
		r.set("peak_rss_mb", "MB", peak)
		return r, nil
	}

	// Traced: an untraced half-budget run, then the same explorations
	// under the tracer.
	st := d.loop(p.seed, budget/2, 0, nil)
	tr := newTracer()
	ts := d.loop(p.seed, 0, len(st.order), tr)
	wall := ts.wall
	r.attempted, r.failed = int64(len(st.order)+len(ts.order)), st.failed+ts.failed
	r.problems = append(r.problems, st.problems...)
	r.problems = append(r.problems, ts.problems...)
	if err := tr.write(spanFile(p, "mc-deep"), "mc-deep"); err != nil {
		return nil, err
	}
	// Deterministic counts must repeat exactly between the two passes.
	for fi, f := range d.frags {
		a, b := st.perFrag[fi], ts.perFrag[fi]
		if countsOf(a) != countsOf(b) || !sameOutcomes(a.Outcomes, b.Outcomes) {
			r.fail("%s: untraced and traced explorations differ: %+v vs %+v", f.name, a, b)
		}
	}

	ls := layers{tr: tr, wall: wall}
	setLayerDefaults(r)
	var total mcCounts
	for fi, f := range d.frags {
		res := st.perFrag[fi]
		setExplorationCounts(r, "mc."+f.name, countsOf(res))
		r.set("mc."+f.name+".outcomes", "count", float64(len(res.Outcomes)))
	}
	for _, fi := range st.order {
		total.add(st.perFrag[fi])
	}
	setExplorationCounts(r, "mc", total)
	r.set("mc.states_per_s", "1/s", float64(st.states)/st.explore.Seconds())
	r.set("mc.bytes_per_state", "B", float64(st.mem.bytes)/float64(st.states))
	r.set("mc.allocs_per_state", "count", float64(st.mem.mallocs)/float64(st.states))
	r.set("runtime.allocs_per_op", "count", float64(st.mem.mallocs)/float64(len(st.order)))
	r.set("runtime.gc_cpu_share", "share", st.mem.gcShare())
	r.set("mc.explore_parallel.self_share", "share", ls.selfShare("mc.explore_parallel"))
	r.set("gate.self_share", "share", ls.selfShare("gate.check"))
	r.set("driver.self_share", "share", ls.selfShare("mc.fragment"))
	r.set("trace.overhead_share", "share", ts.adj.Seconds()/st.adj.Seconds()-1)
	r.set("trace.coverage_share", "share", ls.coverage())
	if cov := ls.coverage(); cov < 0.95 {
		r.fail("traced layers cover %.3f of traced wall time, want >= 0.95", cov)
	}
	return r, nil
}
