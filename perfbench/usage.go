package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// usage is a snapshot of the process's clocks and allocation counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // bytes allocated since start
	gcCycles uint64
	gcPause  float64 // seconds, summed from the pause histogram
}

// delta is the difference of two snapshots in the reported units.
type delta struct {
	wall, cpu, allocMB, gcCycles, gcPause float64
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, n := range usageMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
	}
	// The pause histogram has no exact sum; each pause is counted at its
	// bucket's lower edge (or the upper edge of an unbounded first bucket),
	// exact to the histogram's resolution.
	if h := s[2].Value.Float64Histogram(); h != nil {
		for i, n := range h.Counts {
			edge := h.Buckets[i]
			if math.IsInf(edge, -1) {
				edge = h.Buckets[i+1]
			}
			u.gcPause += float64(n) * edge
		}
	}
	return u
}

func (u usage) sub(v usage) delta {
	return delta{
		wall:     u.at.Sub(v.at).Seconds(),
		cpu:      (u.cpu - v.cpu).Seconds(),
		allocMB:  float64(u.alloc-v.alloc) / 1e6,
		gcCycles: float64(u.gcCycles - v.gcCycles),
		gcPause:  u.gcPause - v.gcPause,
	}
}

// prepareRep returns the memory the previous repetition left behind to the
// operating system and restarts the kernel's peak-RSS counter, so a
// repetition's peak holds only its own memory and the set-up state it
// uses. The two collections also empty every sync.Pool (the simulator's
// engine pool among them), so each repetition starts from the same state
// instead of one that depends on when the last collection ran. It reports
// whether the peak counter could be reset.
func prepareRep() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the resident-set high-water mark in MB: since the last
// prepareRep when it could reset the counter, else since process start.
func peakRSSMB(reset bool) float64 {
	if reset {
		if data, err := os.ReadFile("/proc/self/status"); err == nil {
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				f := bytes.Fields(sc.Bytes())
				if len(f) >= 2 && string(f[0]) == "VmHWM:" {
					if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
						return kb / 1e3
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1e3 // kB on Linux
}
