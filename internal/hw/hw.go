// Package hw models the storage devices the tectonic cluster accounts
// reads against: HDD and SSD specs with a seek + transfer service time,
// and a stateful Disk that skips the seek for a sequential read. The
// model is deliberately simple because the paper's storage findings
// (seek-bound small reads, the value of coalescing) are first-order
// effects of exactly these parameters.
package hw

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/clock"
)

// DiskSpec describes a storage device with a positioning cost and a
// sequential transfer rate. HDDs pay a seek per random I/O; SSDs pay a
// small fixed access latency.
type DiskSpec struct {
	Name         string
	SeekTime     time.Duration // average positioning time per random I/O
	TransferMBps float64       // sequential transfer rate
	CapacityTB   float64
	PowerWatts   float64
}

var (
	// HDD models the paper's HDD storage nodes: high capacity per watt,
	// low IOPS per watt. 8 ms average seek, 180 MB/s transfer.
	HDD = DiskSpec{Name: "HDD", SeekTime: 8 * time.Millisecond, TransferMBps: 180, CapacityTB: 16, PowerWatts: 8}

	// SSD trades capacity for IOPS: per §7.2 the paper's SSD nodes have
	// ~326% the IOPS/W of HDD at only ~9% of the capacity/W.
	SSD = DiskSpec{Name: "SSD", SeekTime: 80 * time.Microsecond, TransferMBps: 2000, CapacityTB: 4, PowerWatts: 22}
)

// ServiceTime reports the device-occupancy time of one random I/O of the
// given size: one positioning cost plus the transfer time.
func (d DiskSpec) ServiceTime(bytes int64) time.Duration {
	if bytes < 0 {
		panic(fmt.Sprintf("hw: negative I/O size %d", bytes))
	}
	transfer := time.Duration(float64(bytes) / (d.TransferMBps * 1e6) * float64(time.Second))
	return d.SeekTime + transfer
}

// Disk is a stateful device instance accounting I/O against a timeline.
type Disk struct {
	Spec DiskSpec

	tl *clock.Timeline

	mu         sync.Mutex
	lastOffset map[string]int64
}

// NewDisk returns a disk of the given spec accounting on clk.
func NewDisk(spec DiskSpec, clk *clock.Clock) *Disk {
	return &Disk{
		Spec:       spec,
		tl:         clock.NewTimeline(clk),
		lastOffset: make(map[string]int64),
	}
}

// Read accounts one read I/O against the disk and returns its simulated
// completion time. The stream argument names the logical extent being
// read; a read that starts exactly where the previous read of the same
// stream ended skips the positioning cost, modelling a sequential scan.
func (d *Disk) Read(stream string, offset, bytes int64) time.Duration {
	if bytes < 0 || offset < 0 {
		panic("hw: negative read parameters")
	}
	d.mu.Lock()
	last, seen := d.lastOffset[stream]
	sequential := seen && last == offset
	d.lastOffset[stream] = offset + bytes
	d.mu.Unlock()

	st := d.Spec.ServiceTime(bytes)
	if sequential {
		st -= d.Spec.SeekTime
	}
	return d.tl.Occupy(st)
}

// Forget drops the stream's sequential-read state, so a later stream of
// the same name starts with a seek.
func (d *Disk) Forget(stream string) {
	d.mu.Lock()
	delete(d.lastOffset, stream)
	d.mu.Unlock()
}

// BusyTotal reports cumulative device-busy time.
func (d *Disk) BusyTotal() time.Duration { return d.tl.BusyTotal() }

// ResetAccounting clears busy time and sequential-read state for a fresh
// measurement window.
func (d *Disk) ResetAccounting() {
	d.mu.Lock()
	d.lastOffset = make(map[string]int64)
	d.mu.Unlock()
	d.tl.Reset()
}
