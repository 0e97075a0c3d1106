package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB; 0 if /proc is unreadable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS collects garbage and then asks the kernel to restart
// the VmHWM high-water mark from the current resident set, so that the
// next peakRSSMB reads the peak of one segment instead of the whole
// run's. It reports whether the kernel accepted the reset; when it did
// not (no /proc, or a sandbox that refuses the write) peaks fall back
// to whole-run high-water marks. Call it outside timed regions.
func resetPeakRSS() bool {
	runtime.GC()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is a snapshot of the whole-process counters the per-op metrics
// are differences of.
type usage struct {
	allocBytes uint64
	mallocs    uint64
	gcCPU      float64 // seconds
	cpu        float64 // seconds
}

func (a usage) minus(b usage) usage {
	return usage{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

func (a usage) plus(b usage) usage {
	return usage{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.gcCPU + b.gcCPU, a.cpu + b.cpu}
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCPU: gcCPUSeconds(), cpu: cpuSeconds()}
}

// gcCPUSeconds is the CPU time the runtime attributes to garbage
// collection so far (an estimate, per runtime/metrics).
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
