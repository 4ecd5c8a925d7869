package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment records the host a result was measured on.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        procField("/proc/cpuinfo", "model name"),
		"seed":       seed,
	}
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM),
// or the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64); err == nil {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS returns freed heap to the operating system and resets the
// process's VmHWM to its current resident set, so that a workload run
// after another in the same process reports its own peak. It reports
// whether the kernel took the reset (Linux 4.0 and later).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
