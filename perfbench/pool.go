package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"tbtso/internal/fuzz"
	"tbtso/internal/obs"
)

// The fuzz-campaign programs come from a committed table of the first
// poolSize programs of the tbtso-fuzz default stream (generator seeds
// 1..poolSize). Check costs are heavy-tailed: the median program takes
// ~3 ms and the slowest over a second, so a few programs set a
// campaign's rate, and 300 consecutive programs from five start seeds
// ran at 31–49 programs/s. The table therefore records each program's
// check cost. A pass runs the costliest programs and draws one program
// from every pair of the rest adjacent in cost order, so every pass has
// the same cost profile while the seed still chooses which programs run,
// and deals the draws into poolChunks chunks of like composition, so a
// chunk's speed is a sample of the pass's.

//go:embed fuzzpool.txt
var poolText string

const (
	poolSize   = 1200
	poolGroup  = 2
	poolChunks = 10
	// poolAlways is how many of the costliest programs join every
	// pass. They are the programs that take over 0.6 s, among them all
	// nine whose explorations hit the state budget: they set both the
	// rate and the memory peak, so every seed runs all of them.
	poolAlways = 12
)

// poolEntry is one program of the table: its generator seed, the counts
// a correct check of it produces, and its check time on the machine
// that wrote the table (used only to order the table).
type poolEntry struct {
	seed                          int64
	runs, truncated, explorations int
	costUs                        int64
}

func loadPool() ([]poolEntry, error) {
	var out []poolEntry
	for ln, line := range strings.Split(poolText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("fuzzpool.txt:%d: want 5 fields, got %d", ln+1, len(f))
		}
		var v [5]int64
		for i, s := range f {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fuzzpool.txt:%d: %w", ln+1, err)
			}
			v[i] = n
		}
		out = append(out, poolEntry{seed: v[0], runs: int(v[1]), truncated: int(v[2]), explorations: int(v[3]), costUs: v[4]})
	}
	if len(out) != poolSize {
		return nil, fmt.Errorf("fuzzpool.txt: %d programs, want %d", len(out), poolSize)
	}
	return out, nil
}

// poolPass returns pass k's programs for a workload seed, as chunks in
// run order: the poolAlways costliest programs and one seeded pick from
// each cost group of the rest, each block of poolChunks adjacent picks
// dealt one to a chunk, each chunk shuffled.
func poolPass(pool []poolEntry, seed int64, k int) [][]poolEntry {
	byCost := append([]poolEntry(nil), pool...)
	sort.Slice(byCost, func(i, j int) bool {
		if byCost[i].costUs != byCost[j].costUs {
			return byCost[i].costUs < byCost[j].costUs
		}
		return byCost[i].seed < byCost[j].seed
	})
	rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
	rest := byCost[:len(byCost)-poolAlways]
	var picks []poolEntry
	for g := 0; g < len(rest); g += poolGroup {
		grp := rest[g:min(g+poolGroup, len(rest))]
		picks = append(picks, grp[rng.Intn(len(grp))])
	}
	picks = append(picks, byCost[len(rest):]...)
	chunks := make([][]poolEntry, poolChunks)
	for b := 0; b < len(picks); b += poolChunks {
		deal := rng.Perm(poolChunks)
		for i, e := range picks[b:min(b+poolChunks, len(picks))] {
			chunks[deal[i]] = append(chunks[deal[i]], e)
		}
	}
	for _, c := range chunks {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	return chunks
}

// writePool checks generator seeds 1..n with the campaign configuration
// and writes the table fuzzpool.txt holds. Each program's cost is the
// faster of two checks, after a warm-up over the first 20 programs.
func writePool(w io.Writer, n int) error {
	cfg := campaignConfig(obs.NewRegistry())
	fuzz.Run(cfg, 20, 1)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fuzz-campaign program table: seed runs truncated explorations cost_us\n")
	fmt.Fprintf(bw, "# written by: go run . -make-pool %d (host %v)\n", n, hostStamp())
	for s := int64(1); s <= int64(n); s++ {
		var best time.Duration
		var rep fuzz.Report
		var expl uint64
		for rep2 := 0; rep2 < 2; rep2++ {
			before := cfg.Metrics.Counter("fuzz.explorations").Load()
			t0 := time.Now()
			rep = fuzz.Run(cfg, 1, s)
			d := time.Since(t0)
			expl = cfg.Metrics.Counter("fuzz.explorations").Load() - before
			if rep2 == 0 || d < best {
				best = d
			}
		}
		if len(rep.Mismatches) > 0 {
			return fmt.Errorf("seed %d: %d mismatches (%v)", s, len(rep.Mismatches), rep.Mismatches[0])
		}
		fmt.Fprintf(bw, "%d %d %d %d %d\n", s, rep.Runs, rep.Truncated, expl, best.Microseconds())
	}
	return bw.Flush()
}
