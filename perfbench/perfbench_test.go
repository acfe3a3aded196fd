package main

import (
	"os"
	"testing"
)

func TestSelfTestGatesFire(t *testing.T) {
	for _, f := range selfTest() {
		t.Error(f)
	}
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that each passes its gates and reports its metrics.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, b := range benches {
		for _, traced := range []bool{false, true} {
			r, err := b.run(params{seed: 3, seconds: 0.5, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", b.name, traced, err)
			}
			if len(r.problems) > 0 || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d problems %v", b.name, traced, r.attempted, r.failed, r.problems)
			}
			want := []string{"ops_per_s", "setup_s", "peak_rss_mb"}
			if traced {
				want = want[:0]
				for _, m := range perLayer {
					want = append(want, m.name)
				}
				if _, err := os.Stat(spanFile(params{seed: 3}, b.name)); err != nil {
					t.Errorf("%s: no span dump: %v", b.name, err)
				}
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", b.name, traced, len(r.metrics), len(want))
			}
			for _, m := range want {
				if _, ok := r.metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", b.name, traced, m)
				}
			}
		}
	}
}
