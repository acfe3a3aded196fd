// Litmus example: watch the memory model change as the Δ bound is
// tightened, on the executable TBTSO abstract machine of §2.
//
//	go run ./examples/litmus
//
// The program runs the store-buffering test and the paper's asymmetric
// flag principle (§3) over plain TSO and TBTSO machines, printing the
// outcome histograms. On plain TSO the fence-free flag principle can
// fail (both threads miss each other); with any Δ bound and the slow
// side waiting Δ, the failure outcome disappears — that observation is
// the whole paper in one table.
package main

import (
	"fmt"

	"tbtso/internal/litmus"
	"tbtso/internal/tso"
)

func explore(t litmus.Test, delta uint64, seeds int) {
	rep := litmus.Run(t, litmus.RunConfig{
		Seeds:    seeds,
		Delta:    delta,
		Policies: []tso.DrainPolicy{tso.DrainRandom, tso.DrainAdversarial},
	})
	model := "TSO (unbounded)"
	if delta > 0 {
		model = fmt.Sprintf("TBTSO[Δ=%d ticks]", delta)
	}
	fmt.Printf("%s on %s — %d executions\n", t.Name, model, rep.Total)
	fmt.Print(rep)
	if rep.ForbiddenSeen() {
		fmt.Println("  !!! forbidden outcome observed")
	}
	fmt.Println()
}

func main() {
	fmt.Println("=== classic store buffering: the relaxation TSO permits ===")
	explore(litmus.StoreBuffering(false), 0, 200)

	fmt.Println("=== with fences (the symmetric flag principle): 0/0 gone ===")
	explore(litmus.StoreBuffering(true), 0, 200)

	fmt.Println("=== the asymmetric flag principle, fence-free fast side ===")
	fmt.Println("--- on plain TSO the principle is UNSOUND (look for saw0=0 saw1=0): ---")
	unsound := litmus.TBTSOFlagPrinciple()
	unsound.Forbidden = nil // Δ=0 makes the 0/0 outcome legal; just count it
	explore(unsound, 0, 200)

	fmt.Println("--- on TBTSO[Δ] the same code is sound: ---")
	explore(litmus.TBTSOFlagPrinciple(), 150, 200)

	fmt.Println("=== one adversarial TSO execution, traced ===")
	out, trace, err := litmus.OnceTraced(litmus.StoreBuffering(false), tso.Config{
		Policy: tso.DrainAdversarial, Seed: 0,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("outcome: %s\n", out.Key())
	for _, e := range trace {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println("\nnote how both stores commit only after both loads — the store buffer at work")
}
