package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// warmPrograms is the set-up's warm-up pass: the table's first programs,
// the same for every workload seed.
const warmPrograms = 40

// campaignConfig is the tbtso-fuzz default campaign with a metrics
// registry attached, checked by one campaign worker (the explorer inside
// still runs GOMAXPROCS workers).
func campaignConfig(reg *obs.Registry) fuzz.Config {
	return fuzz.Config{
		Deltas:           []int{0, 1, 3},
		Policies:         []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial},
		MachSeeds:        3,
		MaxStates:        200_000,
		CrossCheckStates: 20_000,
		Metrics:          reg,
		Workers:          1,
	}
}

type campaign struct {
	pool     []poolEntry
	cfg      fuzz.Config
	warm     fuzz.Report
	warmExpl int // explorations the warm-up counted
}

func setupCampaign() (*campaign, error) {
	pool, err := loadPool()
	if err != nil {
		return nil, err
	}
	c := &campaign{pool: pool, cfg: campaignConfig(obs.NewRegistry())}
	c.warm = fuzz.Run(c.cfg, warmPrograms, pool[0].seed)
	c.warmExpl = int(c.cfg.Metrics.Counter("fuzz.explorations").Load())
	return c, nil
}

// counts are the deterministic totals a campaign's report must match.
type counts struct {
	programs, runs, truncated, explorations int
}

func (c counts) String() string {
	return fmt.Sprintf("programs=%d runs=%d truncated=%d explorations=%d", c.programs, c.runs, c.truncated, c.explorations)
}

func (c *counts) add(e poolEntry) {
	c.programs++
	c.runs += e.runs
	c.truncated += e.truncated
	c.explorations += e.explorations
}

// campaignStats is what the untraced loop measured.
type campaignStats struct {
	programs   []poolEntry
	got, want  counts
	failed     int64
	wall, adj  time.Duration // whole loop, in wall and steal-adjusted time
	perProgram []float64     // seconds per program check
	// speeds are each chunk's table cost over its measured time;
	// tableUs is the table cost of all programs checked.
	speeds    []float64
	rawSpeeds []float64 // the same without the steal adjustment
	tableUs   int64
	mem       memDelta
}

// rate is programs/s: the chunks' programs per second of table cost,
// times the median chunk speed relative to the table, so a burst of
// outside load on a shared host moves it only if it covers most chunks.
func (st *campaignStats) rate(speeds []float64) float64 {
	return float64(len(st.programs)) / (float64(st.tableUs) / 1e6) * median(speeds)
}

// runCampaign checks programs through fuzz.Run, one call per program,
// chunk by chunk, until budget has passed at the end of a chunk (or,
// with anyProgram set, of any program). Each program starts from a
// collected heap, so peak memory does not depend on where the previous
// one left the GC cycle.
func (c *campaign) runCampaign(seed int64, budget time.Duration, anyProgram bool) campaignStats {
	var st campaignStats
	expl := c.cfg.Metrics.Counter("fuzz.explorations")
	expl0 := expl.Load()
	m0 := readMem()
	t0 := time.Now()
	whole := startWatch()
	done := false
	for k := 0; !done; k++ {
		for _, chunk := range poolPass(c.pool, seed, k) {
			var chunkUs int64
			w := startWatch()
			for _, e := range chunk {
				t := time.Now()
				runtime.GC()
				r := fuzz.Run(c.cfg, 1, e.seed)
				d := time.Since(t).Seconds()
				chunkUs += e.costUs
				st.perProgram = append(st.perProgram, d)
				st.programs = append(st.programs, e)
				st.got.programs += r.Programs
				st.got.runs += r.Runs
				st.got.truncated += r.Truncated
				st.want.add(e)
				if len(r.Mismatches) > 0 || r.Runs != e.runs || r.Truncated != e.truncated {
					st.failed++
				}
				if anyProgram && time.Since(t0) >= budget {
					break
				}
			}
			wall, adj := w.stop()
			st.speeds = append(st.speeds, float64(chunkUs)/1e6/adj.Seconds())
			st.rawSpeeds = append(st.rawSpeeds, float64(chunkUs)/1e6/wall.Seconds())
			st.tableUs += chunkUs
			if time.Since(t0) >= budget {
				done = true
				break
			}
		}
	}
	st.wall, st.adj = whole.stop()
	st.mem = readMem().sub(m0)
	st.got.explorations = int(expl.Load() - expl0)
	return st
}

func runFuzzCampaign(p params) (*run, error) {
	c, setupS, err := timedSetup(setupCampaign)
	if err != nil {
		return nil, err
	}
	r := &run{}
	var warmWant counts
	for _, e := range c.pool[:warmPrograms] {
		warmWant.add(e)
	}
	if got := (counts{c.warm.Programs, c.warm.Runs, c.warm.Truncated, c.warmExpl}); got != warmWant || len(c.warm.Mismatches) > 0 {
		r.fail("warm-up pass: got %v with %d mismatches, want %v", got, len(c.warm.Mismatches), warmWant)
	}

	budget := time.Duration(p.seconds * float64(time.Second))
	if !p.traced {
		st := c.runCampaign(p.seed, budget, false)
		r.attempted, r.failed = int64(st.got.programs), st.failed
		if st.got != st.want {
			r.fail("campaign counts %v, table expects %v", st.got, st.want)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("ops_per_s", "1/s", st.rate(st.speeds))
		fmt.Fprintf(os.Stderr, "perfbench: fuzz-campaign %.4g programs/s in wall time\n", st.rate(st.rawSpeeds))
		r.set("setup_s", "s", setupS)
		r.set("peak_rss_mb", "MB", peak)
		return r, nil
	}

	// Traced: an untraced half-budget run, then the same programs
	// decomposed into their public calls under the tracer.
	st := c.runCampaign(p.seed, budget/2, true)
	tr := newTracer()
	d := &decomposer{cfg: c.cfg, tr: tr, cover: func(p mc.Program, delta int) int {
		return fuzz.CoverDelta(p, fuzz.MachineDelta(delta))
	}}
	w := startWatch()
	for _, e := range st.programs {
		d.check(e.seed)
	}
	wall, adj := w.stop()
	r.attempted, r.failed = int64(len(st.programs)), st.failed+d.failedPrograms
	if st.got != st.want {
		r.fail("campaign counts %v, table expects %v", st.got, st.want)
	}
	if d.got != st.got {
		r.fail("traced decomposition counts %v, untraced fuzz.Run counts %v", d.got, st.got)
	}
	if err := tr.write(spanFile(p, "fuzz-campaign"), "fuzz-campaign"); err != nil {
		return nil, err
	}

	ls := layers{tr: tr, wall: wall}
	explore := ls.get("mc.explore_raw").Total + ls.get("mc.explore_cover").Total
	setLayerDefaults(r)
	r.set("mc.explore_raw.calls", "count", float64(ls.get("mc.explore_raw").Calls))
	r.set("mc.explore_raw.us_per_call", "us", ls.perCall("mc.explore_raw")/1e3)
	r.set("runtime.allocs_per_op", "count", float64(st.mem.mallocs)/float64(len(st.programs)))
	r.set("runtime.gc_cpu_share", "share", st.mem.gcShare())
	r.set("mc.explore_cover.states_per_s", "1/s", float64(d.coverStates)/(float64(ls.get("mc.explore_cover").Total)/1e9))
	r.set("mc.explore_cover.self_share", "share", ls.selfShare("mc.explore_cover"))
	r.set("mc.explore_raw.self_share", "share", ls.selfShare("mc.explore_raw"))
	r.set("mc.states_per_s", "1/s", float64(d.res.States+d.truncStates)/(float64(explore)/1e9))
	r.set("mc.truncated_state_share", "share", float64(d.truncStates)/float64(d.res.States+d.truncStates))
	r.set("mc.reference.calls", "count", float64(ls.get("mc.reference").Calls))
	r.set("mc.reference.states_per_s", "1/s", float64(d.refStates)/(float64(ls.get("mc.reference").Total)/1e9))
	r.set("mc.reference.self_share", "share", ls.selfShare("mc.reference"))
	r.set("tso.sample.calls", "count", float64(ls.get("tso.sample").Calls))
	r.set("tso.sample.ns_per_run", "ns", ls.perCall("tso.sample"))
	r.set("tso.sample.actions_per_s", "1/s", float64(d.actions)/(float64(ls.get("tso.sample").Total)/1e9))
	r.set("tso.sample.self_share", "share", ls.selfShare("tso.sample"))
	r.set("fuzz.gen.self_share", "share", ls.selfShare("fuzz.gen"))
	r.set("driver.self_share", "share", ls.selfShare("fuzz.program"))
	r.set("fuzz.program_p50_ms", "ms", quantile(st.perProgram, 0.5)*1e3)
	r.set("fuzz.program_p99_ms", "ms", quantile(st.perProgram, 0.99)*1e3)
	r.set("fuzz.programs", "count", float64(d.got.programs))
	r.set("fuzz.runs", "count", float64(d.got.runs))
	r.set("fuzz.truncated", "count", float64(d.got.truncated))
	r.set("fuzz.explorations", "count", float64(d.got.explorations))
	setExplorationCounts(r, "mc", d.res)
	r.set("trace.overhead_share", "share", adj.Seconds()/st.adj.Seconds()-1)
	r.set("trace.coverage_share", "share", ls.coverage())
	if cov := ls.coverage(); cov < 0.95 {
		r.fail("traced layers cover %.3f of traced wall time, want >= 0.95", cov)
	}
	return r, nil
}

// decomposer re-does fuzz's per-program differential check — Gen, raw
// Δ exploration, reference cross-check, cover exploration, machine
// samples — as separate public calls, each under a span. Its counts
// must equal fuzz.Run's for the same programs.
type decomposer struct {
	cfg   fuzz.Config
	tr    *tracer
	cover func(p mc.Program, delta int) int // checker Δ the machine samples are judged against

	got                    counts
	failedPrograms         int64
	res                    mcCounts // summed over completed parallel explorations
	coverStates, refStates int
	truncStates            int
	actions                uint64
}

func (d *decomposer) explore(name string, p mc.Program, delta int) (mc.Result, bool, error) {
	d.got.explorations++
	d.tr.begin(name, -1)
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: d.cfg.MaxStates})
	d.tr.end()
	var te *mc.TruncatedError
	if errors.As(err, &te) {
		d.got.truncated++
		d.truncStates += te.States
		return res, false, nil
	}
	if err != nil {
		return res, false, err
	}
	d.res.add(res)
	return res, true, nil
}

// check runs one generated program from a collected heap, as the
// untraced loop does; it returns whether the program produced a
// mismatch.
func (d *decomposer) check(seed int64) bool {
	d.tr.begin("fuzz.program", seed)
	defer d.tr.end()
	runtime.GC()
	d.tr.begin("fuzz.gen", -1)
	p := fuzz.Gen(d.cfg.Gen, seed)
	d.tr.end()
	return d.checkProgram(p, seed)
}

func (d *decomposer) checkProgram(p mc.Program, seed int64) bool {
	d.got.programs++
	s := fuzz.NewSampler()
	bad := false
	for _, delta := range d.cfg.Deltas {
		raw, ok, err := d.explore("mc.explore_raw", p, delta)
		if err != nil {
			bad = true
			continue
		}
		if !ok {
			continue
		}
		if raw.States <= d.cfg.CrossCheckStates {
			d.tr.begin("mc.reference", -1)
			seq, err := mc.ExploreSequentialBounded(p, delta, d.cfg.MaxStates)
			d.tr.end()
			d.refStates += seq.States
			if err == nil && !sameOutcomes(raw.Outcomes, seq.Outcomes) {
				bad = true
			}
		}
		admitted := raw
		if cover := d.cover(p, delta); cover != delta {
			admitted, ok, err = d.explore("mc.explore_cover", p, cover)
			if err != nil {
				bad = true
				continue
			}
			if !ok {
				continue
			}
			d.coverStates += admitted.States
		}
		for pi, pol := range d.cfg.Policies {
			for i := 0; i < d.cfg.MachSeeds; i++ {
				d.got.runs++
				run := fuzz.MachineRun{Delta: fuzz.MachineDelta(delta), Policy: pol, Seed: seed*1000003 + int64(pi)*101 + int64(i)}
				d.tr.begin("tso.sample", -1)
				outcome, mres, err := s.Sample(p, run)
				d.tr.end()
				st := mres.Stats
				d.actions += st.Loads + st.Stores + st.Commits + st.RMWs + st.Fences + st.ClockReads
				if err != nil || !admitted.Has(outcome) {
					bad = true
				}
			}
		}
	}
	if bad {
		d.failedPrograms++
	}
	return bad
}

func sameOutcomes(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}
