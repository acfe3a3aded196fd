// Package litmus runs litmus tests against the TBTSO abstract machine:
// small multi-threaded programs whose sets of observable outcomes
// characterize a memory model. The package ships the classic x86-TSO
// litmus tests (store buffering, message passing, coherence) and the
// paper's flag-principle variants (§3), and a runner that explores
// outcomes across scheduler seeds and drain policies.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"tbtso/internal/tso"
)

// Env gives a litmus thread access to its named shared variables and
// per-thread result registers.
type Env struct {
	vars    map[string]tso.Addr
	regs    []map[string]tso.Word
	machine *tso.Machine
}

// Var returns the machine address of a named shared variable.
func (e *Env) Var(name string) tso.Addr {
	a, ok := e.vars[name]
	if !ok {
		panic(fmt.Sprintf("litmus: unknown variable %q", name))
	}
	return a
}

// Set records a register value for thread tid. Each thread must only
// set its own registers (the per-thread map is what makes this safe).
func (e *Env) Set(tid int, reg string, v tso.Word) {
	e.regs[tid][reg] = v
}

// Delta reports the machine's Δ bound in ticks (0 = unbounded).
func (e *Env) Delta() uint64 { return e.machine.Delta() }

// ThreadFn is one thread of a litmus test.
type ThreadFn func(th *tso.Thread, e *Env)

// Test is a litmus test: named shared variables (initialized to zero),
// one function per thread, and a predicate describing the outcome the
// model under test forbids.
type Test struct {
	Name string
	Doc  string
	// Vars lists shared variable names, all initialized to 0.
	Vars []string
	// Threads are the test's programs, spawn order = thread id.
	Threads []ThreadFn
	// Forbidden reports whether an outcome must never be observed under
	// the model configuration the test targets.
	Forbidden func(Outcome) bool
	// Relaxed, if non-nil, reports whether an outcome demonstrates the
	// relaxed behaviour the test looks for (e.g. store/load reordering).
	Relaxed func(Outcome) bool
}

// Outcome maps "T<i>:<reg>" register names to observed values.
type Outcome map[string]tso.Word

// Key renders an outcome canonically for histogram bucketing.
func (o Outcome) Key() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, o[k])
	}
	return strings.Join(parts, " ")
}

// RunConfig controls outcome exploration.
type RunConfig struct {
	// Seeds is how many scheduler seeds to try per policy.
	Seeds int
	// Policies lists the drain policies to explore; nil means all three.
	Policies []tso.DrainPolicy
	// Delta is the machine's TBTSO bound (0 = plain TSO).
	Delta uint64
	// StallProb is passed to the machine scheduler.
	StallProb float64
	// MaxTicks caps each execution (0 = machine default).
	MaxTicks uint64
	// Sinks are attached to every machine the runner creates — e.g.
	// the obs/monitor online checkers, so a whole litmus sweep runs
	// under continuous Δ-residency verification.
	Sinks []tso.Sink
}

// Report aggregates the outcomes of an exploration.
type Report struct {
	Test      string
	Total     int
	Counts    map[string]int
	Forbidden []string // outcome keys that matched Test.Forbidden
	RelaxedN  int      // executions matching Test.Relaxed
	Errs      []error
}

// ForbiddenSeen reports whether any forbidden outcome was observed.
func (r Report) ForbiddenSeen() bool { return len(r.Forbidden) > 0 }

// String renders the report as a small table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d executions\n", r.Test, r.Total)
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %6d\n", k, r.Counts[k])
	}
	if r.ForbiddenSeen() {
		fmt.Fprintf(&b, "  FORBIDDEN OUTCOMES SEEN: %v\n", r.Forbidden)
	}
	return b.String()
}

// Once executes a single run of the test and returns its outcome.
func Once(t Test, cfg tso.Config) (Outcome, error) {
	m := tso.New(cfg)
	env := &Env{
		vars:    make(map[string]tso.Addr, len(t.Vars)),
		regs:    make([]map[string]tso.Word, len(t.Threads)),
		machine: m,
	}
	for _, v := range t.Vars {
		env.vars[v] = m.AllocWords(1)
	}
	for i, fn := range t.Threads {
		env.regs[i] = make(map[string]tso.Word)
		f := fn
		m.Spawn(fmt.Sprintf("T%d", i), func(th *tso.Thread) { f(th, env) })
	}
	res := m.Run()
	if res.Err != nil {
		return nil, res.Err
	}
	out := make(Outcome)
	for i, regs := range env.regs {
		for r, v := range regs {
			out[fmt.Sprintf("T%d:%s", i, r)] = v
		}
	}
	return out, nil
}

// OnceTraced executes a single run with a tso.Recorder attached after
// cfg.Sinks and also returns the recorded execution trace (the events
// up to the failure when the run errs).
func OnceTraced(t Test, cfg tso.Config) (Outcome, []tso.Event, error) {
	rec := &tso.Recorder{}
	cfg.Sinks = append(cfg.Sinks[:len(cfg.Sinks):len(cfg.Sinks)], rec)
	out, err := Once(t, cfg)
	return out, rec.Events, err
}

// Run explores the test across seeds and policies and aggregates the
// observed outcomes.
func Run(t Test, cfg RunConfig) Report {
	policies := cfg.Policies
	if policies == nil {
		policies = []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial}
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = 50
	}
	rep := Report{Test: t.Name, Counts: make(map[string]int)}
	seenForbidden := make(map[string]bool)
	for _, p := range policies {
		for s := 0; s < cfg.Seeds; s++ {
			out, err := Once(t, tso.Config{
				Delta:     cfg.Delta,
				Policy:    p,
				Seed:      int64(s),
				StallProb: cfg.StallProb,
				MaxTicks:  cfg.MaxTicks,
				Sinks:     cfg.Sinks,
			})
			if err != nil {
				rep.Errs = append(rep.Errs, fmt.Errorf("policy=%v seed=%d: %w", p, s, err))
				continue
			}
			rep.Total++
			rep.Counts[out.Key()]++
			if t.Forbidden != nil && t.Forbidden(out) && !seenForbidden[out.Key()] {
				seenForbidden[out.Key()] = true
				rep.Forbidden = append(rep.Forbidden, out.Key())
			}
			if t.Relaxed != nil && t.Relaxed(out) {
				rep.RelaxedN++
			}
		}
	}
	return rep
}
