//go:build unix

package main

import "syscall"

// processCPU returns the user+system CPU time the process has consumed,
// in nanoseconds: what a capacity planner pays, including GC workers and
// helper goroutines that wall time hides.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
