package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor takes CPU time from the
// guest when neighbours are busy ("steal" in /proc/stat), and a run that
// lost 15% of its CPU to steal measured 20% fewer programs/s than one
// that lost 4%. Every timed interval is therefore reported as its wall
// time less the share of the guest's busy CPU time that was stolen
// during it. Where /proc/stat has no steal figures the adjustment is
// zero and the times are plain wall time.

// cpuTicks are the guest-wide busy and stolen CPU ticks so far.
type cpuTicks struct {
	busy, steal uint64
}

func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t
}

// stopwatch times one interval in wall time and in steal-adjusted time.
type stopwatch struct {
	t0    time.Time
	ticks cpuTicks
}

func startWatch() stopwatch {
	return stopwatch{t0: time.Now(), ticks: readTicks()}
}

// stop returns the wall time since start and that time less the stolen
// share of the guest's busy CPU time over the interval.
func (w stopwatch) stop() (wall, adjusted time.Duration) {
	wall = time.Since(w.t0)
	t := readTicks()
	busy, steal := t.busy-w.ticks.busy, t.steal-w.ticks.steal
	if busy == 0 || steal > busy {
		return wall, wall
	}
	return wall, time.Duration(float64(wall) * (1 - float64(steal)/float64(busy)))
}
