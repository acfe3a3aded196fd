package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"tbtso/internal/mc"
)

// perLayer lists every metric a traced run reports, with its unit. A
// workload that does not exercise a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"mc.explore_raw.calls", "count"},
	{"mc.explore_raw.us_per_call", "us"},
	{"mc.explore_raw.self_share", "share"},
	{"mc.explore_cover.states_per_s", "1/s"},
	{"mc.explore_cover.self_share", "share"},
	{"mc.explore_parallel.self_share", "share"},
	{"mc.states_per_s", "1/s"},
	{"mc.bytes_per_state", "B"},
	{"mc.allocs_per_state", "count"},
	{"mc.truncated_state_share", "share"},
	{"mc.states", "count"},
	{"mc.transitions", "count"},
	{"mc.dedup_hits", "count"},
	{"mc.por_prunes", "count"},
	{"mc.terminal_collapses", "count"},
	{"mc.ffhp.states", "count"},
	{"mc.ffhp.outcomes", "count"},
	{"mc.ffhp.transitions", "count"},
	{"mc.ffhp.dedup_hits", "count"},
	{"mc.ffhp.por_prunes", "count"},
	{"mc.ffhp.terminal_collapses", "count"},
	{"mc.ffbl.states", "count"},
	{"mc.ffbl.outcomes", "count"},
	{"mc.ffbl.transitions", "count"},
	{"mc.ffbl.dedup_hits", "count"},
	{"mc.ffbl.por_prunes", "count"},
	{"mc.ffbl.terminal_collapses", "count"},
	{"mc.reference.calls", "count"},
	{"mc.reference.states_per_s", "1/s"},
	{"mc.reference.self_share", "share"},
	{"tso.sample.calls", "count"},
	{"tso.sample.ns_per_run", "ns"},
	{"tso.sample.actions_per_s", "1/s"},
	{"tso.sample.self_share", "share"},
	{"fuzz.gen.self_share", "share"},
	{"fuzz.program_p50_ms", "ms"},
	{"fuzz.program_p99_ms", "ms"},
	{"fuzz.programs", "count"},
	{"fuzz.runs", "count"},
	{"fuzz.truncated", "count"},
	{"fuzz.explorations", "count"},
	{"table.lookup_ns", "ns"},
	{"table.update_ns", "ns"},
	{"table.self_share", "share"},
	{"smr.protect_ns", "ns"},
	{"smr.scans", "count"},
	{"smr.frees", "count"},
	{"smr.retire_loops", "count"},
	{"arena.violations", "count"},
	{"lock.owner_ns", "ns"},
	{"lock.revocations", "count"},
	{"lock.self_share", "share"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"driver.self_share", "share"},
	{"gate.self_share", "share"},
	{"trace.overhead_share", "share"},
	{"trace.coverage_share", "share"},
}

// setLayerDefaults reports every per-layer metric as 0, for the workload
// to overwrite the ones it measures.
func setLayerDefaults(r *run) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// setExplorationCounts reports summed parallel-explorer counters under
// prefix ("mc" or "mc.<fragment>").
func setExplorationCounts(r *run, prefix string, res mcCounts) {
	r.set(prefix+".states", "count", float64(res.States))
	r.set(prefix+".transitions", "count", float64(res.Transitions))
	r.set(prefix+".dedup_hits", "count", float64(res.DedupHits))
	r.set(prefix+".por_prunes", "count", float64(res.PorPrunes))
	r.set(prefix+".terminal_collapses", "count", float64(res.TerminalCollapses))
}

// mcCounts are the parallel explorer's deterministic counters.
type mcCounts struct {
	States, Transitions, DedupHits, PorPrunes, TerminalCollapses int
}

func countsOf(res mc.Result) mcCounts {
	return mcCounts{res.States, res.Transitions, res.DedupHits, res.PorPrunes, res.TerminalCollapses}
}

func (c *mcCounts) add(res mc.Result) {
	c.States += res.States
	c.Transitions += res.Transitions
	c.DedupHits += res.DedupHits
	c.PorPrunes += res.PorPrunes
	c.TerminalCollapses += res.TerminalCollapses
}

// layers turns a tracer's spans into per-layer shares of traced wall
// time.
type layers struct {
	tr   *tracer
	wall time.Duration
	st   map[string]*layerStat
}

func (l *layers) get(name string) *layerStat {
	if l.st == nil {
		l.st = l.tr.stats()
	}
	if s := l.st[name]; s != nil {
		return s
	}
	return &layerStat{}
}

// perCall is the mean span duration of name, in ns.
func (l *layers) perCall(name string) float64 {
	s := l.get(name)
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Calls)
}

func (l *layers) selfShare(name string) float64 {
	return float64(l.get(name).Self) / float64(l.wall)
}

// coverage is the share of traced wall time inside top-level spans,
// which equals the summed self times of all spans over wall time.
func (l *layers) coverage() float64 {
	return float64(l.tr.rootTotal()) / float64(l.wall)
}

// memDelta is the allocation and GC activity between two readMem calls.
type memDelta struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

var memSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	d := memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		d.totalCPU = s[1].Value.Float64()
	}
	return d
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.mallocs - o.mallocs, m.bytes - o.bytes, m.gcCPU - o.gcCPU, m.totalCPU - o.totalCPU}
}

// gcShare is the GC's share of all CPU time the runtime accounted.
func (m memDelta) gcShare() float64 {
	if m.totalCPU <= 0 {
		return 0
	}
	return m.gcCPU / m.totalCPU
}
