// Command tbtso-sim explores the TBTSO abstract machine: it runs the
// litmus-test suite across scheduler seeds and drain policies and
// prints outcome histograms, showing which behaviours each memory-model
// configuration admits.
//
//	tbtso-sim                          # all litmus tests, TSO and TBTSO
//	tbtso-sim -test SB -delta 0        # one test on plain TSO
//	tbtso-sim -seeds 500 -stall 0.2    # wider exploration
//	tbtso-sim -demo reclaim            # the §4 soundness matrix, live
//	tbtso-sim -demo deque              # the §8 work-stealing matrix
//	tbtso-sim -list                    # available litmus tests and demos
//
// With -trace FILE it instead runs ONE execution with streaming sinks
// attached, prints its event list (litmus tests) and a metrics summary,
// and writes the execution as a Chrome trace-event/Perfetto JSON file
// (open at https://ui.perfetto.dev). The litmus execution is the one at
// -seed (default 0) under -policy (default adversarial); a demo traces
// its single fence-free run at -delta:
//
//	tbtso-sim -test SB -delta 50 -seed 1 -policy random -trace t.json  # a litmus test
//	tbtso-sim -demo reclaim -delta 50 -trace t.json                    # the §4 reclamation race (FFHP)
//	tbtso-sim -demo deque -delta 200 -seed 1 -trace t.json             # one §8 work-stealing harvest
//
// The trace has one track per machine thread: dur-1 slices for stores,
// loads, RMWs and fences; commit slices carrying the drain cause; flow
// arrows from each store to its commit (the store-buffer residency);
// and a buffered-stores counter track per thread.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tbtso/internal/cli"
	"tbtso/internal/fuzz"
	"tbtso/internal/litmus"
	"tbtso/internal/machalg"
	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/obs/serve"
	"tbtso/internal/tso"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main's os.Exit is the single exit point, so
// the deferred obs teardown (violation report, flight dump, endpoint
// stop) runs on every path — early exits used to skip it.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("tbtso-sim", flag.ContinueOnError)
	var (
		name   = fs.String("test", "", "litmus test name (default: all)")
		delta  = fs.Uint64("delta", 200, "TBTSO Δ bound in ticks (0 = plain TSO)")
		seeds  = fs.Int("seeds", 100, "scheduler seeds per drain policy")
		stall  = fs.Float64("stall", 0, "per-tick thread stall probability")
		trace  = fs.String("trace", "", "run ONE execution of -test or -demo and write it to this Perfetto JSON file")
		seed   = fs.Int64("seed", 0, "scheduler seed of the -trace execution")
		policy = fs.String("policy", "adversarial", "drain policy of the -trace litmus execution: eager, random, or adversarial")
		demo   = fs.String("demo", "", "run a soundness demo: reclaim or deque")
		exh    = fs.Bool("exhaustive", false, "enumerate ALL executions of the canonical programs with the model checker")
		list   = fs.Bool("list", false, "list the available litmus tests and demos and exit")
	)
	var obsOpts serve.Options
	obsOpts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Println("litmus tests:")
		for _, e := range litmus.All() {
			note := ""
			if e.NeedsDelta {
				note = "  (needs -delta > 0)"
			}
			fmt.Printf("  %-28s %s%s\n", e.Test.Name, e.Test.Doc, note)
		}
		fmt.Println("demos: reclaim, deque")
		return 0
	}
	pol, err := fuzz.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *trace != "" && (*name == "") == (*demo == "") {
		fmt.Fprintln(os.Stderr, "-trace needs exactly one of -test or -demo (try -list)")
		return 2
	}

	ctx, stop := cli.SignalContext(context.Background(), os.Stderr)
	defer stop()

	sess, err := obsOpts.Start(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return 1
	}
	defer func() {
		if n := sess.FinishContext(ctx, os.Stderr, "tbtso-sim"); n > 0 && code == 0 {
			code = 1
		}
		code = cli.ExitCode(ctx, code)
	}()

	if *exh {
		exhaustive()
		return 0
	}

	if *trace != "" {
		return traceOne(sess, *trace, *name, *demo, tso.Config{Delta: *delta, Policy: pol, Seed: *seed})
	}

	if *demo != "" {
		switch *demo {
		case "reclaim":
			demoReclaim(sess.Sinks())
		case "deque":
			demoDeque()
		default:
			fmt.Fprintf(os.Stderr, "unknown demo %q (reclaim, deque)\n", *demo)
			return 2
		}
		return 0
	}

	all := litmus.All()
	found := false
	for _, entry := range all {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tbtso-sim: interrupted; remaining litmus tests skipped")
			break
		}
		t := entry.Test
		if *name != "" && t.Name != *name {
			continue
		}
		found = true
		d := *delta
		if entry.NeedsDelta && d == 0 {
			fmt.Printf("%s: requires Δ > 0; running with Δ=200\n", t.Name)
			d = 200
		}
		rep := litmus.Run(t, litmus.RunConfig{
			Seeds:     *seeds,
			Delta:     d,
			StallProb: *stall,
			Sinks:     sess.Sinks(),
		})
		fmt.Printf("%s  [Δ=%d]\n  %s\n", t.Name, d, t.Doc)
		fmt.Print(indent(rep.String()))
		if t.Relaxed != nil {
			fmt.Printf("  relaxed outcomes: %d/%d\n", rep.RelaxedN, rep.Total)
		}
		if rep.ForbiddenSeen() {
			fmt.Println("  *** FORBIDDEN OUTCOME OBSERVED ***")
		}
		for _, err := range rep.Errs {
			fmt.Printf("  error: %v\n", err)
		}
		fmt.Println()
	}
	if !found && ctx.Err() == nil {
		unknownTest(*name)
		return 2
	}
	return 0
}

// unknownTest reports a -test name that matches no litmus test.
func unknownTest(name string) {
	fmt.Fprintf(os.Stderr, "no litmus test named %q; available:\n", name)
	for _, e := range litmus.All() {
		fmt.Fprintf(os.Stderr, "  %s\n", e.Test.Name)
	}
}

// traceOne runs the single -trace execution — litmus test name under
// cfg, or the demo's one fence-free run at cfg.Delta — with a Perfetto
// exporter, machine metrics and the session's sinks attached, then
// writes the trace to path. It returns a process exit code instead of
// exiting, so deferred teardown still runs.
func traceOne(sess *serve.Session, path, name, demo string, cfg tso.Config) int {
	perf := obs.NewPerfetto()
	cfg.Sinks = append([]tso.Sink{perf, obs.NewMachineMetrics(sess.Registry)}, sess.Sinks()...)

	switch {
	case name != "":
		var (
			t                 litmus.Test
			found, needsDelta bool
		)
		for _, e := range litmus.All() {
			if strings.EqualFold(e.Test.Name, name) {
				t, needsDelta, found = e.Test, e.NeedsDelta, true
				break
			}
		}
		if !found {
			unknownTest(name)
			return 2
		}
		if needsDelta && cfg.Delta == 0 {
			fmt.Printf("%s: requires Δ > 0; running with Δ=200\n", t.Name)
			cfg.Delta = 200
		}
		out, events, err := litmus.OnceTraced(t, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
			return 1
		}
		fmt.Printf("%s (Δ=%d, policy=%v, seed=%d): %s\n", t.Name, cfg.Delta, cfg.Policy, cfg.Seed, out.Key())
		if t.Forbidden != nil && t.Forbidden(out) {
			fmt.Println("  NOTE: this outcome is forbidden under the test's target model")
		}
		for _, e := range events {
			fmt.Printf("    %s\n", e)
		}
	case demo == "reclaim":
		r := machalg.ReclaimRaceDemo(cfg.Delta, machalg.HPFenceFree, cfg.Sinks...)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "reclaim demo: %v\n", r.Err)
			return 1
		}
		fmt.Printf("reclaim race (Δ=%d, FFHP): use-after-free=%v freed-early=%v\n",
			cfg.Delta, r.UseAfterFree, r.FreedEarly)
	case demo == "deque":
		r := machalg.DequeOnce(cfg.Delta, 0, cfg.Delta > 0, cfg.Seed, cfg.Sinks...)
		fmt.Printf("deque harvest (Δ=%d, seed=%d): duplicated=%d lost=%d\n",
			cfg.Delta, cfg.Seed, r.Duplicated, r.Lost)
	default:
		fmt.Fprintf(os.Stderr, "unknown demo %q (reclaim, deque)\n", demo)
		return 2
	}

	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := perf.WriteJSON(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("wrote %s (%d trace events) — open at https://ui.perfetto.dev\n", path, perf.EventCount())

	fmt.Println("\nmetrics:")
	sess.Registry.WriteText(os.Stdout)
	return 0
}

// exhaustive enumerates every execution of the canonical litmus
// programs under plain TSO and TBTSO bounds with the explicit-state
// model checker — small-scope proofs instead of sampling.
func exhaustive() {
	show := func(name string, p mc.Program, delta int, highlight string) {
		res := mc.Explore(p, delta)
		model := "TSO"
		if delta > 0 {
			model = fmt.Sprintf("TBTSO[Δ=%d]", delta)
		}
		fmt.Printf("%s on %s — %d states, outcome set:\n", name, model, res.States)
		for _, o := range res.List() {
			marker := " "
			if o == highlight {
				marker = "*"
			}
			fmt.Printf("  %s %s\n", marker, o)
		}
		if highlight != "" && !res.Has(highlight) {
			fmt.Printf("    (%s PROVEN IMPOSSIBLE at this bound)\n", highlight)
		}
		fmt.Println()
	}

	sb := mc.Program{
		Threads: [][]mc.Op{
			{mc.St(0, 1), mc.Ld(1, 0)},
			{mc.St(1, 1), mc.Ld(0, 0)},
		},
		Vars: 2, Regs: 1,
	}
	zz := "T0:r0=0 T1:r0=0"
	fmt.Println("== store buffering, no fences ==")
	show("SB", sb, 0, zz)
	show("SB", sb, 1, zz)

	flagP := func(wait int) mc.Program {
		return mc.Program{
			Threads: [][]mc.Op{
				{mc.St(0, 1), mc.Ld(1, 0)},
				{mc.St(1, 1), mc.Fence(), mc.Wait(wait), mc.Ld(0, 0)},
			},
			Vars: 2, Regs: 1,
		}
	}
	fmt.Println("== asymmetric flag principle (fence-free T0; T1 fences and waits) ==")
	show("flag(wait=11)", flagP(11), 0, zz)
	show("flag(wait=11)", flagP(11), 10, zz)
	show("flag(wait=1) — inadequate wait", flagP(1), 10, zz)
}

// demoReclaim prints the §4 soundness matrix live: the directed
// reclamation race under every combination of fence / Δ-deferral /
// memory model. Any sinks (the -obs.monitor flight recorder) are
// attached to every machine — note the matrix deliberately includes
// unsound rows, so monitored runs WILL report violations there.
func demoReclaim(sinks []tso.Sink) {
	fmt.Println("§4 reclamation race: reader protects a node, reclaimer frees it")
	fmt.Println("(machine: adversarial drains; UAF = use-after-free detected)")
	fmt.Println()
	rows := []struct {
		label string
		delta uint64
		mode  machalg.HPMode
	}{
		{"HP (store+fence)        on plain TSO ", 0, machalg.HPFenced},
		{"no fence, no deferral   on plain TSO ", 0, machalg.HPUnsafe},
		{"no fence, no deferral   on TBTSO[400]", 400, machalg.HPUnsafe},
		{"FFHP (Δ-deferred)       on plain TSO ", 0, machalg.HPFenceFree},
		{"FFHP (Δ-deferred)       on TBTSO[400]", 400, machalg.HPFenceFree},
	}
	for _, r := range rows {
		out := machalg.ReclaimRaceDemo(r.delta, r.mode, sinks...)
		verdict := "SAFE"
		if out.UseAfterFree {
			verdict = "USE-AFTER-FREE"
		}
		fmt.Printf("  %s  →  %s\n", r.label, verdict)
	}
	fmt.Println("\nonly fence-free + Δ-deferred + Δ-bounded machine is both fast and safe (§4)")
}

// demoDeque prints the §8 work-stealing matrix: temporal vs spatial
// bounding for the fence-free deque.
func demoDeque() {
	fmt.Println("§8 fence-free work stealing: owner take has no fence; does the thief's")
	fmt.Println("steal protocol survive? (40 items, 2 thieves, up to 60 seeds each)")
	fmt.Println()
	rows := []struct {
		label     string
		delta     uint64
		bufferCap int
		wait      bool
	}{
		{"waitless steal  on plain TSO          ", 0, 0, false},
		{"waitless steal  on TSO[S=2] (spatial) ", 0, 2, false},
		{"Δ-waiting steal on TBTSO[200]         ", 200, 0, true},
		{"Δ-waiting steal on TBTSO[150]+TSO[S=2]", 150, 2, true},
	}
	for _, r := range rows {
		out := machalg.DequeDemo(r.delta, r.bufferCap, r.wait, 60)
		verdict := fmt.Sprintf("exact-once across %d seeds", out.SeedsTried)
		if out.Duplicated > 0 || out.Lost > 0 {
			verdict = fmt.Sprintf("BROKEN at seed %d: %d duplicated, %d lost",
				out.SeedsTried-1, out.Duplicated, out.Lost)
		}
		fmt.Printf("  %s  →  %s\n", r.label, verdict)
	}
	fmt.Println("\nspatial bounding (TSO[S]) does not make fence-free stealing safe; the")
	fmt.Println("temporal bound does — the §8 contrast, executable")
}

func indent(s string) string {
	return "  " + s
}
