package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span or -1; op
// ties together every span of one program, fragment or operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer records spans in memory from a single goroutine; write dumps
// them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span, -1 at top level
	op    int64
	// clockNs is the measured cost of one clock read; each span's
	// duration is reduced by it, so sampled sub-microsecond spans
	// report the call rather than the timer.
	clockNs int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1, clockNs: clockCost()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one. A top-level span
// starts a new op when op is non-negative.
func (t *tracer) begin(name string, op int64) {
	if t.open < 0 {
		t.op = op
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.open, Op: t.op})
	t.open = int32(len(t.spans) - 1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	s := &t.spans[t.open]
	s.End = t.now()
	t.open = s.Parent
}

// dur is span i's duration less one clock read, never negative.
func (t *tracer) dur(i int) int64 {
	s := t.spans[i]
	return max(0, s.End-s.Start-t.clockNs)
}

// hasChild reports whether any span has span i as its parent.
func (t *tracer) hasChild(i int) bool {
	for j := i + 1; j < len(t.spans) && t.spans[j].Start <= t.spans[i].End; j++ {
		if t.spans[j].Parent == int32(i) {
			return true
		}
	}
	return false
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls int64
	Total int64 // summed span durations, ns
	Self  int64 // Total minus time covered by child spans, ns
	durs  []float64
}

// stats aggregates spans by name. Self time is a span's duration minus
// the durations of its direct children; summed over a span tree it
// equals the root's duration.
func (t *tracer) stats() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += t.dur(i)
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := t.dur(i)
		st.Calls++
		st.Total += d
		st.Self += max(0, d-child[i])
		st.durs = append(st.durs, float64(d))
	}
	return out
}

// rootTotal sums the durations of the top-level spans: the traced time
// the layers account for.
func (t *tracer) rootTotal() int64 {
	var n int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			n += t.dur(i)
		}
	}
	return n
}

// write dumps the spans as JSON lines, preceded by a header line with
// the host stamp and the per-name aggregates.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	layers := map[string]map[string]int64{}
	for _, n := range names {
		layers[n] = map[string]int64{"calls": st[n].Calls, "total_ns": st[n].Total, "self_ns": st[n].Self}
	}
	if err := enc.Encode(map[string]any{"workload": workload, "host": hostStamp(), "clock_ns": t.clockNs, "layers": layers}); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// clockCost is the median cost of one time.Since call, in ns.
func clockCost() int64 {
	t0 := time.Now()
	var ds []float64
	for i := 0; i < 101; i++ {
		a := time.Since(t0)
		for j := 0; j < 100; j++ {
			_ = time.Since(t0)
		}
		ds = append(ds, float64(time.Since(t0)-a)/101)
	}
	return int64(median(ds))
}
