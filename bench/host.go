package main

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// The host calibration loop is a fixed pure-CPU workload (splitmix64
// steps) whose wall-clock says how fast this container is right now,
// independent of the program under test. calibSteps sizes the reading
// taken before and after a run, setCalibSteps the short one taken before
// and after every op set.
const (
	calibSteps    = 1 << 27
	setCalibSteps = 1 << 24
)

// refNsPerStep defines the reference host the timing metrics are
// normalised to: one that runs a calibration step in 2 ns (the container
// this benchmark was calibrated on, when quiet). Shared containers change
// speed by tens of percent for minutes at a time; the calibration loop
// slows down with them, so seconds scaled by reference/measured compare
// across such shifts — and across containers — where raw seconds do not.
const refNsPerStep = 2.0

// hostFactor converts seconds measured while the calibration loop of
// steps steps took calibS into reference-host seconds.
func hostFactor(steps int, calibS float64) float64 {
	if calibS <= 0 {
		return 1
	}
	return float64(steps) * refNsPerStep / 1e9 / calibS
}

// calibSink keeps the calibration loop's result live so the compiler
// cannot delete the loop.
var calibSink uint64

// calibrate times the calibration loop on one core. Every step adds to
// calibSink in memory, which makes the loop latency-bound: unlike a
// register-only loop (or a reading on every core at once) it does not
// halve when the sibling hyperthread happens to be busy, and so tracks the
// host's speed rather than this process's own background threads. Two
// calibrations around a run that disagree flag a noisy neighbour.
func calibrate(steps int) float64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < steps; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		calibSink += z ^ (z >> 31)
	}
	return time.Since(start).Seconds()
}

// cpuSeconds reports user + system CPU of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reports the process's resident-set high-water mark (VmHWM)
// in MB; 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// settle puts the process where a fresh one starts before an op set:
// garbage of the previous set collected, its pages handed back to the
// kernel, and the resident-set high-water mark reset to the current
// resident set (Linux: "5" to /proc/self/clear_refs), so that VmHWM read
// after the set is that set's own peak. Where the reset is not permitted
// VmHWM stays the process's lifetime peak — still a valid, just coarser,
// reading.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// usage is a point-in-time reading of the costs an interval is charged.
type usage struct {
	at      time.Time
	cpu     float64
	alloc   uint64
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	inuse   uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:      time.Now(),
		cpu:     cpuSeconds(),
		alloc:   m.TotalAlloc,
		mallocs: m.Mallocs,
		gcs:     m.NumGC,
		pauseNs: m.PauseTotalNs,
		inuse:   m.HeapInuse,
	}
}

// cost is what one measured interval consumed.
type cost struct {
	WallS     float64
	CPUS      float64
	AllocMB   float64
	Mallocs   float64
	GCCycles  float64
	GCPauseMS float64
	// HeapInuseMB is the heap in use when the interval ended.
	HeapInuseMB float64
}

func (u usage) since(start usage) cost {
	return cost{
		WallS:     u.at.Sub(start.at).Seconds(),
		CPUS:      u.cpu - start.cpu,
		AllocMB:   float64(u.alloc-start.alloc) / 1e6,
		Mallocs:   float64(u.mallocs - start.mallocs),
		GCCycles:  float64(u.gcs - start.gcs),
		GCPauseMS: float64(u.pauseNs-start.pauseNs) / 1e6,

		HeapInuseMB: float64(u.inuse) / 1e6,
	}
}

// noopEnv marks a re-exec of the benchmark binary that must exit at once:
// the child-start probe below.
const noopEnv = "CAVENET_BENCH_NOOP"

// probeProcStart measures what every CLI user pays before main runs —
// process creation, runtime start and every package init in the binary
// (the scenario catalogue registers there) — as the median wall-clock of
// n spawns of this binary that exit at the top of main. Work a later
// change moves into init shows here.
func probeProcStart(n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), noopEnv+"=1")
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}
