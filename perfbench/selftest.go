package main

import (
	"strings"

	"tbtso/internal/fuzz"
	"tbtso/internal/machalg"
	"tbtso/internal/mc"
)

// selfTest plants one failure per workload gate and returns a line for
// each gate that did not fire (or fired on the unplanted control).
func selfTest() []string {
	var fails []string

	// fuzz-campaign: the planted ffhp-tso control runs on plain TSO
	// (Δ=0), where its hazard-pointer scan miss is real, and its
	// samples are judged against the TBTSO[Δ=3] outcome set the
	// algorithm is proven under; the miss must surface as a failed
	// program. Judged against its own Δ=0 set it must pass.
	var planted mc.Program
	for _, pl := range fuzz.PlantedControls() {
		if pl.Name == "ffhp-tso" {
			planted = pl.Program
		}
	}
	cfg := campaignConfig(nil)
	cfg.Deltas = []int{0}
	bad := &decomposer{cfg: cfg, tr: newTracer(), cover: func(mc.Program, int) int { return 3 }}
	if !bad.checkProgram(planted, 1) || bad.failedPrograms != 1 {
		fails = append(fails, "fuzz-campaign gate did not count planted ffhp-tso at Δ=0 as a failed program")
	}
	good := &decomposer{cfg: cfg, tr: newTracer(), cover: func(p mc.Program, d int) int {
		return fuzz.CoverDelta(p, fuzz.MachineDelta(d))
	}}
	if good.checkProgram(planted, 1) {
		fails = append(fails, "fuzz-campaign gate failed ffhp-tso judged at its own Δ")
	}

	// mc-deep: MCFFHP(2,2,4) under plain TSO admits a hazard miss.
	f := fragment{name: "ffhp-tso", prog: machalg.MCFFHP(2, 2, 4), delta: 0,
		bad: func(o string) bool { return machalg.MCFFHPMissed(o, 2, 2) }}
	tripped := false
	for _, why := range f.gate(f.explore()) {
		tripped = tripped || strings.Contains(why, violationMsg)
	}
	if !tripped {
		fails = append(fails, "mc-deep gate missed the hazard-miss outcome of MCFFHP(2,2,4) at Δ=0")
	}

	// native-sync: a map model that drops one insert must disagree.
	nt, err := newNative()
	if err != nil {
		return append(fails, "native-sync: "+err.Error())
	}
	g := opGen{s: 7}
	nt.run(&g, 0, 20_000, nil)
	if mis, same := nt.checkModel(true); mis == 0 && same {
		fails = append(fails, "native-sync gate accepted a diverging map model")
	}
	if mis, same := nt.checkModel(false); mis != 0 || !same {
		fails = append(fails, "native-sync gate rejected the faithful map model")
	}
	return fails
}
