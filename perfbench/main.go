// Command perfbench is the repository's benchmark. It runs one of three
// single-process workloads for a fixed wall-clock budget, checks the
// program's outputs, and prints one JSON result line:
//
//	go run . --workload fuzz-campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (ops_per_s, setup_s,
// peak_rss_mb); with --trace 1 it runs the same workload with spans
// around every public call into the layers under test and reports the
// per-layer metrics instead. See README.md for the workloads, the
// metrics and the gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setupReps is how many times each workload sets itself up; setup_s is
// the median, so one scheduler hiccup cannot move it.
const setupReps = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: op counts, gate verdicts and the
// metrics of the requested mode.
type run struct {
	attempted, failed int64
	problems          []string // gate failures; any makes the run incorrect
	metrics           map[string]metric
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    int64
	seconds float64
	traced  bool
}

type bench struct {
	name string
	run  func(params) (*run, error)
}

var benches = []bench{
	{"fuzz-campaign", runFuzzCampaign},
	{"mc-deep", runMCDeep},
	{"native-sync", runNativeSync},
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: fuzz-campaign, mc-deep or native-sync")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "measured wall-clock seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer variant")
		makePool = fs.Int("make-pool", 0, "write the fuzz-campaign program table for this many generator seeds to stdout and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *makePool > 0 {
		if err := writePool(os.Stdout, *makePool); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *bench
	for i := range benches {
		if benches[i].name == *name {
			w = &benches[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {fuzz-campaign|mc-deep|native-sync}, --seconds > 0, --trace 0|1\n")
		return 2
	}

	if fails := selfTest(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "perfbench: self-test:", f)
		}
		return 1
	}

	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1}
	r, err := w.run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, pr := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", pr)
	}
	host, _ := json.Marshal(hostStamp())
	fmt.Printf("host %s\n", host)
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// hostStamp identifies the machine a result was measured on.
func hostStamp() map[string]string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]string{
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// timedSetup runs setup setupReps times and returns the last result and
// the median steal-adjusted duration in seconds. Every repetition builds
// its state from scratch, so the kept one is no different from the
// others.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < setupReps; i++ {
		w := startWatch()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		_, d := w.stop()
		ds = append(ds, d.Seconds())
		last = v
	}
	return last, median(ds), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// spanFile names the span dump of a traced run, under the checkout's
// build directory.
func spanFile(p params, workload string) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, p.seed))
}
