package main

import (
	"errors"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of this process's CPU time, GC
// CPU and allocation totals; two of them bracket a measured interval.
type procSnap struct {
	wall  time.Time
	cpu   time.Duration // user + system, from rusage
	gc    float64       // runtime/metrics GC CPU seconds
	busy  float64       // runtime/metrics non-idle CPU seconds
	alloc uint64        // cumulative heap bytes allocated
}

var procSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(procSamples)
	return procSnap{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    procSamples[0].Value.Float64(),
		busy:  procSamples[1].Value.Float64() - procSamples[2].Value.Float64(),
		alloc: procSamples[3].Value.Uint64(),
	}
}

// procDelta accumulates the process cost of several measured intervals.
type procDelta struct {
	wall, cpu time.Duration
	gc, busy  float64
	alloc     uint64
}

func (d *procDelta) add(from, to procSnap) {
	d.wall += to.wall.Sub(from.wall)
	d.cpu += to.cpu - from.cpu
	d.gc += to.gc - from.gc
	d.busy += to.busy - from.busy
	d.alloc += to.alloc - from.alloc
}

func (d procDelta) cpuPerWall() float64 { return d.cpu.Seconds() / d.wall.Seconds() }

// resetPeakRSS resets the kernel's peak-RSS high-water mark of this
// process to its current RSS (Linux clear_refs 5), so peakRSSMiB then
// reads the peak of the interval that follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak RSS (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcFrac is GC's share of the CPU time the process was busy.
func (d procDelta) gcFrac() float64 {
	if d.busy <= 0 {
		return 0
	}
	return d.gc / d.busy
}
