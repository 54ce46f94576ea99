//go:build !unix

package main

// Without getrusage the CPU and RSS metrics read zero; the benchmark's
// reference numbers are taken on Linux.

func processCPU() int64 { return 0 }

func peakRSSMB() float64 { return 0 }
