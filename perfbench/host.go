package main

import (
	"crypto/sha256"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is a reading of the process's cumulative host counters.
type hostSample struct {
	cpu    time.Duration // user + system CPU, from getrusage
	allocs uint64        // heap objects allocated
	bytes  uint64        // heap bytes allocated
}

var hostMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

// readHost samples process CPU from getrusage(RUSAGE_SELF), which counts
// only time the process actually ran. The runtime's
// /cpu/classes/total:cpu-seconds is GOMAXPROCS x wall time and does not
// move with the work done.
func readHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
	}
}

func (a hostSample) sub(b hostSample) hostSample {
	return hostSample{cpu: a.cpu - b.cpu, allocs: a.allocs - b.allocs, bytes: a.bytes - b.bytes}
}

// On a shared host the same work costs 10-30% more CPU time while other
// tenants load the machine, for whole runs at a time. The probe
// therefore times a fixed compute kernel alongside the load, and host
// CPU per tx is rescaled to a host on which that kernel takes
// refKernelNominal. The rescaled figure still moves one for one with
// the program's own CPU use.
const refKernelNominal = 50 * time.Microsecond

var (
	refInput = make([]byte, 16<<10)
	refSink  byte
)

// timeRefKernel times one run of the reference kernel: SHA-256 over
// 64 KiB.
func timeRefKernel() time.Duration {
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(refInput)
		refSink ^= sum[0]
	}
	return time.Since(t0)
}

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss is
// in KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
