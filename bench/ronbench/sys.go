package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusKB reads one "<key>:  <n> kB" line of /proc/self/status
// (VmHWM is the peak resident set, VmRSS the current one). It returns
// 0 where /proc is unavailable.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseFloat(fields[0], 64)
		return v
	}
	return 0
}

// peakRSSMB is the process's high-water resident set in MiB.
func peakRSSMB() float64 {
	if kb := procStatusKB("VmHWM"); kb > 0 {
		return kb / 1024
	}
	// Fallback outside Linux: ru_maxrss (KiB on Linux, bytes on some
	// other systems; only the Linux path is exercised).
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// totalAllocMB is the cumulative heap bytes allocated, in MiB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// spinSink keeps the calibration loop's result alive.
var spinSink uint64

// spinCalibrationNS times a fixed 2²⁴-step integer recurrence and
// returns the best of five runs in nanoseconds: a box-speed yardstick
// printed with every run, so numbers from different machines are never
// compared blind. (It tracks clock speed, not memory contention: on the
// reference box it holds within 1 % while the workloads drift by 10 %.)
func spinCalibrationNS() int64 {
	best := int64(0)
	for r := 0; r < 5; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		t0 := time.Now()
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(t0).Nanoseconds()
		spinSink += x
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// fingerprint is the header every run prints first.
func fingerprint() string {
	return fmt.Sprintf("# machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q spin_calibration_ns=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), spinCalibrationNS())
}
