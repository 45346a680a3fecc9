// Package hw models the hardware substrate of the DSI pipeline: compute
// nodes (Table 10 of the paper: cores, memory bandwidth and capacity,
// NIC line rate, power) and HDD and SSD storage devices with a
// service-time cost model.
//
// The models are deliberately simple — seek + transfer for disks, and
// for NICs and memory channels the node's rated line rate and peak
// bandwidth, which dpp.ResourceReport divides accounted bytes by —
// because the paper's findings (seek-bound small reads, NIC-bound
// workers, shrinking memory bandwidth per core) are first-order effects
// of exactly these parameters.
package hw

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/clock"
)

// NodeSpec describes one generation of general-purpose compute node, as in
// Table 10 of the paper.
type NodeSpec struct {
	Name          string
	PhysicalCores int
	NICGbps       float64
	MemoryGB      float64
	PeakMemBWGBps float64
	// PowerWatts is the provisioned node power used for Figure 1 style
	// power accounting.
	PowerWatts float64
}

// MemBWPerCore reports peak memory bandwidth per physical core in GB/s,
// the metric the paper uses to argue memory bandwidth is the coming
// bottleneck (§6.3).
func (n NodeSpec) MemBWPerCore() float64 {
	return n.PeakMemBWGBps / float64(n.PhysicalCores)
}

// NICPerCore reports NIC bandwidth per physical core in Gbps.
func (n NodeSpec) NICPerCore() float64 {
	return n.NICGbps / float64(n.PhysicalCores)
}

// The compute-node generations of Table 10. C-v1 is the node DPP Workers
// run on in the paper's measurements; C-vSotA is the hypothetical
// state-of-the-art node.
var (
	CV1 = NodeSpec{Name: "C-v1", PhysicalCores: 18, NICGbps: 12.5, MemoryGB: 64, PeakMemBWGBps: 75, PowerWatts: 300}

	CV2 = NodeSpec{Name: "C-v2", PhysicalCores: 26, NICGbps: 25.0, MemoryGB: 64, PeakMemBWGBps: 92, PowerWatts: 350}

	CV3 = NodeSpec{Name: "C-v3", PhysicalCores: 36, NICGbps: 25.0, MemoryGB: 64, PeakMemBWGBps: 83, PowerWatts: 400}

	CVSotA = NodeSpec{Name: "C-vSotA", PhysicalCores: 64, NICGbps: 100.0, MemoryGB: 1024, PeakMemBWGBps: 205, PowerWatts: 700}
)

// Generations lists the Table 10 node generations in order.
func Generations() []NodeSpec { return []NodeSpec{CV1, CV2, CV3, CVSotA} }

// TrainerSpec models a ZionEX-style 8-GPU training node (§2): per-socket
// frontend NICs for data ingestion and a host resource budget for data
// loading.
type TrainerSpec struct {
	Name         string
	GPUs         int
	CPUSockets   int
	CoresPerSock int
	// FrontendNICGbps is the aggregate frontend NIC bandwidth across
	// sockets, used for data ingestion only (the backend RoCE network is
	// separate and never contends with DSI traffic).
	FrontendNICGbps float64
	MemoryGB        float64
	PeakMemBWGBps   float64
	PowerWatts      float64
}

// V100Trainer is the 2-socket, 8-V100 node used in the paper's Table 7
// data-stall experiment: two 28-core sockets and two 100 Gbps frontend
// NICs.
var V100Trainer = TrainerSpec{
	Name: "V100-2S", GPUs: 8, CPUSockets: 2, CoresPerSock: 28,
	FrontendNICGbps: 200, MemoryGB: 384, PeakMemBWGBps: 256, PowerWatts: 3500,
}

// ZionEX is the A100 training node (§2): 4 CPU sockets, each with a
// dedicated 100 Gbps frontend NIC.
var ZionEX = TrainerSpec{
	Name: "ZionEX", GPUs: 8, CPUSockets: 4, CoresPerSock: 28,
	FrontendNICGbps: 400, MemoryGB: 768, PeakMemBWGBps: 400, PowerWatts: 6500,
}

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

// RandIOPS reports the sustainable random-I/O rate at the given I/O size,
// in operations per second.
func (d DiskSpec) RandIOPS(bytes int64) float64 {
	st := d.ServiceTime(bytes)
	if st <= 0 {
		return 0
	}
	return float64(time.Second) / float64(st)
}

// IOPSPerWatt reports random 4 KiB IOPS per watt, the efficiency metric in
// §7.2.
func (d DiskSpec) IOPSPerWatt() float64 {
	return d.RandIOPS(4096) / d.PowerWatts
}

// CapacityPerWatt reports TB of capacity per watt.
func (d DiskSpec) CapacityPerWatt() float64 {
	return d.CapacityTB / d.PowerWatts
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

// SaturationThreshold is the memory-bandwidth utilization beyond which the
// paper considers the channel saturated (§6.2: "memory bandwidth saturates
// at ≈70% utilization").
const SaturationThreshold = 0.70
