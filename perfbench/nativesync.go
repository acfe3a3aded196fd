package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"tbtso/internal/arena"
	"tbtso/internal/core"
	"tbtso/internal/hashtable"
	"tbtso/internal/list"
	"tbtso/internal/lock"
	"tbtso/internal/smr"
	"tbtso/internal/workload"
)

// The native-sync table: 64 buckets with chains of ~16 nodes, so each
// operation protects a dozen nodes and stays cache-resident; R and Δ
// are the paper's (§7.1).
const (
	nsBuckets  = 64
	nsChain    = 16
	nsR        = 32000
	nsDelta    = 500 * time.Microsecond
	nsWarmOps  = 600_000
	nsBatch    = 4096 // ops between clock reads
	nsSlice    = 256  // batches per throughput sample
	nsSample   = 16   // a traced run decomposes one batch in nsSample
	nsWarmSeed = 0x5eed
)

var nsUniverse = workload.UniverseForChain(nsChain, nsBuckets)

const (
	opLookup = iota
	opInsert
	opRemove
)

// opGen is the seeded operation stream: 80% lookups, 10% inserts, 10%
// removes over keys drawn uniformly from the universe (splitmix64).
type opGen struct{ s uint64 }

func (g *opGen) next() (kind int, key uint64) {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	key = (z >> 32) % nsUniverse
	switch pct := z % 100; {
	case pct < 80:
		return opLookup, key
	case pct < 90:
		return opInsert, key
	default:
		return opRemove, key
	}
}

// segment is a stretch of the op stream that ran: where it started and
// one result bit per op, for the model to replay. Bits are kept in
// fixed-size chunks so memory grows linearly with the op count.
type segment struct {
	start    opGen
	n        int64
	bits     [][]uint64
	rates    []float64 // steal-adjusted ops/s of each nsSlice batches
	rawRates []float64 // the same in wall time
}

const bitChunkOps = 1 << 20

func (s *segment) record(ok bool) {
	if s.n%bitChunkOps == 0 {
		s.bits = append(s.bits, make([]uint64, bitChunkOps/64))
	}
	if ok {
		s.bits[s.n/bitChunkOps][s.n%bitChunkOps>>6] |= 1 << (s.n & 63)
	}
	s.n++
}

func (s *segment) bit(i int64) bool {
	return s.bits[i/bitChunkOps][i%bitChunkOps>>6]>>(i&63)&1 == 1
}

type native struct {
	ar     *arena.Arena
	hp     *smr.HazardPointers
	tb     *hashtable.Table
	lk     *lock.FFBL
	prefil []uint64
	segs   []segment
	// failed counts ops during which arena violations rose or an
	// insert found the arena full.
	failed int64
}

// newNative builds the table under FFHP and fills half the universe.
func newNative() (*native, error) {
	capacity := int(nsUniverse) + nsR + 65536
	ar := arena.New(capacity, 1)
	hp := smr.NewFFHP(smr.Config{Threads: 1, K: list.NumSlots, R: nsR, Arena: ar, Delta: nsDelta})
	nt := &native{
		ar: ar, hp: hp,
		tb: hashtable.New(ar, hp, nsBuckets),
		lk: lock.NewFFBL(core.NewFixedDelta(nsDelta), true),
	}
	fill := opGen{s: nsWarmSeed}
	for len(nt.prefil) < int(nsUniverse/2) {
		_, k := fill.next()
		ok, err := nt.tb.Insert(0, k)
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		if ok {
			nt.prefil = append(nt.prefil, k)
		}
	}
	return nt, nil
}

// setupNative is newNative plus a fixed warm-up stream through the same
// loop the timed run uses.
func setupNative() (*native, error) {
	nt, err := newNative()
	if err != nil {
		return nil, err
	}
	g := opGen{s: nsWarmSeed + 1}
	nt.run(&g, 0, nsWarmOps, nil)
	return nt, nil
}

// run executes ops from g until budget has passed (checked every
// nsBatch ops) or maxOps ran, and records them as a segment; a zero
// limit is no limit. With tr set, every batch runs under a span and one
// batch in nsSample is decomposed (see sampledBatch).
func (nt *native) run(g *opGen, budget time.Duration, maxOps int64, tr *nativeTrace) (wall, adjusted time.Duration) {
	seg := segment{start: *g}
	if maxOps == 0 {
		maxOps = math.MaxInt64
	}
	if budget == 0 {
		budget = math.MaxInt64
	}
	t0 := time.Now()
	whole := startWatch()
	slice0, sw := seg.n, startWatch()
	for batch := 1; ; batch++ {
		if tr != nil {
			tr.t.begin("native.batch", int64(batch))
		}
		if tr != nil && batch%nsSample == 0 {
			nt.sampledBatch(g, &seg, maxOps, tr)
		} else {
			for j := 0; j < nsBatch && seg.n != maxOps; j++ {
				seg.record(nt.op(g.next()))
			}
		}
		if tr != nil {
			tr.t.end()
		}
		if batch%nsSlice == 0 {
			wall, adj := sw.stop()
			seg.rates = append(seg.rates, float64(seg.n-slice0)/adj.Seconds())
			seg.rawRates = append(seg.rawRates, float64(seg.n-slice0)/wall.Seconds())
			slice0, sw = seg.n, startWatch()
		}
		if seg.n == maxOps || time.Since(t0) >= budget {
			break
		}
	}
	if len(seg.rates) == 0 { // shorter than one slice
		wall, adj := sw.stop()
		seg.rates = append(seg.rates, float64(seg.n-slice0)/adj.Seconds())
		seg.rawRates = append(seg.rawRates, float64(seg.n-slice0)/wall.Seconds())
	}
	nt.segs = append(nt.segs, seg)
	return whole.stop()
}

// op runs one operation inside the owner's critical section.
func (nt *native) op(kind int, key uint64) bool {
	nt.lk.OwnerLock()
	ok := nt.tableOp(kind, key)
	nt.lk.OwnerUnlock()
	return ok
}

// tableOp runs one table operation, counting it failed if arena
// violations rose during it or an insert found the arena full.
func (nt *native) tableOp(kind int, key uint64) bool {
	v0 := nt.ar.Violations()
	var ok bool
	var err error
	switch kind {
	case opLookup:
		ok = nt.tb.Lookup(0, key)
	case opInsert:
		ok, err = nt.tb.Insert(0, key)
	default:
		ok = nt.tb.Remove(0, key)
	}
	if err != nil || nt.ar.Violations() != v0 {
		nt.failed++
	}
	return ok
}

// nativeTrace collects a traced run's spans and per-call timings.
type nativeTrace struct {
	t        *tracer
	lookupNs []float64
	updateNs []float64
	sampled  int // decomposed batches so far
}

// sampledBatch runs one batch decomposed into its two layers, each
// under a span: first as many empty owner critical sections as the batch
// has ops, then the batch's table operations. A span per 0.5 µs
// operation would mostly measure the tracer, so the layers are timed a
// batch at a time. Every other sampled batch instead times each table
// operation with a clock read either side, for per-kind latencies.
func (nt *native) sampledBatch(g *opGen, seg *segment, maxOps int64, tr *nativeTrace) {
	m := min(nsBatch, maxOps-seg.n)
	perOp := tr.sampled%2 == 1
	tr.sampled++
	if perOp {
		tr.t.begin("table.timed_ops", -1)
		for j := int64(0); j < m; j++ {
			kind, key := g.next()
			t0 := time.Now()
			ok := nt.tableOp(kind, key)
			d := float64(time.Since(t0)) - float64(tr.t.clockNs)
			if kind == opLookup {
				tr.lookupNs = append(tr.lookupNs, d)
			} else {
				tr.updateNs = append(tr.updateNs, d)
			}
			seg.record(ok)
		}
		tr.t.end()
		return
	}
	tr.t.begin("lock.owner", -1)
	for j := int64(0); j < m; j++ {
		nt.lk.OwnerLock()
		nt.lk.OwnerUnlock()
	}
	tr.t.end()
	tr.t.begin("table.ops", -1)
	for j := int64(0); j < m; j++ {
		seg.record(nt.tableOp(g.next()))
	}
	tr.t.end()
}

// checkModel replays the prefill and every recorded segment on a Go map
// and returns how many ops returned a different result than the map
// predicts, and whether the table's final key set equals the map's.
// diverge plants a model bug (the first insert is dropped) for the
// self-test.
func (nt *native) checkModel(diverge bool) (mismatches int64, sameKeys bool) {
	model := make(map[uint64]bool, nsUniverse)
	for _, k := range nt.prefil {
		model[k] = true
	}
	dropped := !diverge
	for _, seg := range nt.segs {
		g := seg.start
		for i := int64(0); i < seg.n; i++ {
			kind, key := g.next()
			var want bool
			switch kind {
			case opLookup:
				want = model[key]
			case opInsert:
				want = !model[key]
				if !dropped && want {
					dropped = true
				} else {
					model[key] = true
				}
			default:
				want = model[key]
				delete(model, key)
			}
			if seg.bit(i) != want {
				mismatches++
			}
		}
	}
	sameKeys = true
	for k := uint64(0); k < nsUniverse; k++ {
		if nt.tb.Lookup(0, k) != model[k] {
			sameKeys = false
		}
	}
	return mismatches, sameKeys
}

// gate applies native-sync's correctness checks to r.
func (nt *native) gate(r *run) {
	mis, same := nt.checkModel(false)
	r.failed += mis + nt.failed
	if mis > 0 {
		r.fail("%d ops disagree with the map model", mis)
	}
	if !same {
		r.failed++
		r.fail("final key set differs from the map model")
	}
	if v := nt.ar.Violations(); v != 0 {
		r.fail("%d arena violations", v)
	}
	if v := nt.lk.Revocations(); v != 0 {
		r.fail("%d FFBL revocations", v)
	}
}

// protectNs batch-times the FFHP publication with its validation load.
func (nt *native) protectNs() float64 {
	const n = 1 << 20
	h := nt.ar.Alloc(0)
	var link atomic.Uint64
	link.Store(uint64(h))
	bad := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		nt.hp.Protect(0, i%list.NumSlots, h)
		if !smr.Validate(&link, uint64(h)) {
			bad++
		}
	}
	d := time.Since(t0)
	nt.hp.ClearSlots(0)
	nt.ar.Free(0, h)
	if bad > 0 {
		return -1
	}
	return float64(d) / n
}

func runNativeSync(p params) (*run, error) {
	nt, setupS, err := timedSetup(setupNative)
	if err != nil {
		return nil, err
	}
	r := &run{}
	g := opGen{s: uint64(p.seed) * 0x2545f4914f6cdd1d}
	budget := time.Duration(p.seconds * float64(time.Second))
	if !p.traced {
		nt.run(&g, budget, 0, nil)
		seg := nt.segs[len(nt.segs)-1]
		r.attempted = seg.n
		nt.gate(r)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		// Median of ~0.5 s slices, so a burst of outside load on a
		// shared host moves the figure only if it covers most of the run.
		r.set("ops_per_s", "1/s", median(seg.rates))
		fmt.Fprintf(os.Stderr, "perfbench: native-sync %.4g ops/s in wall time\n", median(seg.rawRates))
		r.set("setup_s", "s", setupS)
		r.set("peak_rss_mb", "MB", peak)
		return r, nil
	}

	// Traced: an untraced half-budget run, then as many ops again with
	// every batch under a span and one in nsSample decomposed.
	s0, l0, f0 := nt.hp.Scans(0)
	_, adjA := nt.run(&g, budget/2, 0, nil)
	n := nt.segs[len(nt.segs)-1].n
	tr := &nativeTrace{t: newTracer()}
	wall, adjB := nt.run(&g, 0, n, tr)
	s1, l1, f1 := nt.hp.Scans(0)
	r.attempted = 2 * n
	nt.gate(r)
	if err := tr.t.write(spanFile(p, "native-sync"), "native-sync"); err != nil {
		return nil, err
	}
	protect := nt.protectNs()
	if protect < 0 {
		r.fail("smr.Validate failed on an unchanged link")
	}

	// Layer shares extrapolate the decomposed batches' per-op costs to
	// all n ops; the driver's share is what an undecomposed batch spends
	// beyond them. Medians over batches keep the rare reclaim pass (a
	// few ms) from landing in whichever layer happened to sample it.
	ls := layers{tr: tr.t, wall: wall}
	lockOp := median(ls.get("lock.owner").durs) / nsBatch
	tableOp := median(ls.get("table.ops").durs) / nsBatch
	var plain []float64
	for i, sp := range tr.t.spans {
		if sp.Name == "native.batch" && !tr.t.hasChild(i) {
			plain = append(plain, float64(tr.t.dur(i))/nsBatch)
		}
	}
	perOp := median(plain)
	ops := float64(n) / float64(wall)
	tableShare, lockShare := tableOp*ops, lockOp*ops
	driverShare := (perOp - tableOp - lockOp) * ops
	setLayerDefaults(r)
	r.set("table.lookup_ns", "ns", median(tr.lookupNs))
	r.set("table.update_ns", "ns", median(tr.updateNs))
	r.set("table.self_share", "share", tableShare)
	r.set("smr.protect_ns", "ns", protect)
	r.set("smr.scans", "count", float64(s1-s0))
	r.set("smr.retire_loops", "count", float64(l1-l0))
	r.set("smr.frees", "count", float64(f1-f0))
	r.set("arena.violations", "count", float64(nt.ar.Violations()))
	r.set("lock.owner_ns", "ns", lockOp)
	r.set("lock.revocations", "count", float64(nt.lk.Revocations()))
	r.set("lock.self_share", "share", lockShare)
	r.set("driver.self_share", "share", driverShare)
	r.set("trace.overhead_share", "share", adjB.Seconds()/adjA.Seconds()-1)
	r.set("trace.coverage_share", "share", ls.coverage())
	if cov := ls.coverage(); cov < 0.95 {
		r.fail("traced layers cover %.3f of traced wall time, want >= 0.95", cov)
	}
	return r, nil
}
