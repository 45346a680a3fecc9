package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a snapshot of what the process has spent so far. Two
// snapshots bracket a pass or a window; the difference is its cost.
type usage struct {
	at         time.Time
	cpu        time.Duration // user+sys of the whole process (getrusage)
	allocBytes uint64        // runtime.MemStats.TotalAlloc
	mallocs    uint64        // runtime.MemStats.Mallocs
	gcCPU      float64       // seconds the runtime spent in GC
	peakRSSMB  float64
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	metrics.Read(gcCPUSample)
	u := usage{
		at:         time.Now(),
		cpu:        rusageCPU(ru),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return u
}

// cost is what a stretch of work spent, and how many rows it completed.
type cost struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCPU      float64
	rows       int64
}

func (u usage) since(start usage, rows int64) cost {
	return cost{
		wall:       u.at.Sub(start.at),
		cpu:        u.cpu - start.cpu,
		allocBytes: u.allocBytes - start.allocBytes,
		mallocs:    u.mallocs - start.mallocs,
		gcCPU:      u.gcCPU - start.gcCPU,
		rows:       rows,
	}
}

func (c cost) rowsPerSec() float64    { return float64(c.rows) / c.wall.Seconds() }
func (c cost) cpuNsPerRow() float64   { return float64(c.cpu.Nanoseconds()) / float64(c.rows) }
func (c cost) allocBPerRow() float64  { return float64(c.allocBytes) / float64(c.rows) }
func (c cost) allocsPerRow() float64  { return float64(c.mallocs) / float64(c.rows) }
func (c cost) gcCPUFraction() float64 { return c.gcCPU / c.cpu.Seconds() }
