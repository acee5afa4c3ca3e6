package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the fingerprint stored with every report, so that two reports
// are only compared knowing whether they came from the same kind of machine.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_avg"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

// canarySink keeps the compiler from deleting the canary loop.
var canarySink uint64

// canary times a fixed pure-CPU loop (an xorshift over 1<<22 steps, a few
// milliseconds). It touches no memory, so it moves only when the host gives
// this process less CPU; a trial whose canary is far from the others ran in a
// noisy phase.
func canary() time.Duration {
	began := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink = x
	return time.Since(began)
}

// memCanaryWords sizes the memory canary's table: 32 MiB, larger than the
// last-level cache share a 2-vCPU guest can count on.
const memCanaryWords = 4 << 20

var memCanaryTable []uint64

// memCanary times a fixed walk over a 32 MiB table: 1<<18 dependent loads at
// pseudo-random places, then one pass over all of it (about 45 ms). The
// pure-CPU canary does not see this host's commonest disturbance, a neighbour
// competing for cache and memory bandwidth, which slows everything the engine
// does by up to 1.4× for tens of minutes on end; this one does.
func memCanary() time.Duration {
	if memCanaryTable == nil {
		memCanaryTable = make([]uint64, memCanaryWords)
		x := uint64(88172645463325252)
		for i := range memCanaryTable {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			memCanaryTable[i] = x
		}
	}
	began := time.Now()
	t := memCanaryTable
	i := uint64(0)
	for n := 0; n < 1<<18; n++ {
		i = (t[i%memCanaryWords] + uint64(n)) % memCanaryWords
	}
	sum := i
	for _, v := range t {
		sum += v
	}
	canarySink = sum
	return time.Since(began)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the heap still reachable after a collection: what the server,
// its data and its caches hold on to once the workload's garbage is gone. It
// repeats to a part in a thousand where the resident-set peak, which also
// counts however far the collector happened to fall behind, scatters by a
// quarter. The memory canary's table is the benchmark's own and is let go.
func liveHeapMB() float64 {
	memCanaryTable = nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
