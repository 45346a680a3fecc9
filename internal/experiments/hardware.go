package experiments

import (
	"time"

	"dsi/internal/hw"
)

// The hardware the cost model prices on: the compute-node generations of
// Table 10, the trainer nodes of §2 and Table 7, and the disk figures of
// §7.1–7.2's provisioning math. The runtime's own device model (seek +
// transfer per I/O) is hw's DiskSpec and Disk.

// nodeSpec describes one generation of general-purpose compute node, as
// in Table 10 of the paper.
type nodeSpec struct {
	Name          string
	PhysicalCores int
	NICGbps       float64
	MemoryGB      float64
	PeakMemBWGBps float64
	// PowerWatts is the provisioned node power used for Figure 1 style
	// power accounting.
	PowerWatts float64
}

// memBWPerCore reports peak memory bandwidth per physical core in GB/s,
// the metric the paper uses to argue memory bandwidth is the coming
// bottleneck (§6.3).
func (n nodeSpec) memBWPerCore() float64 {
	return n.PeakMemBWGBps / float64(n.PhysicalCores)
}

// nicPerCore reports NIC bandwidth per physical core in Gbps.
func (n nodeSpec) nicPerCore() float64 {
	return n.NICGbps / float64(n.PhysicalCores)
}

// The compute-node generations of Table 10. C-v1 is the node DPP Workers
// run on in the paper's measurements; C-vSotA is the hypothetical
// state-of-the-art node.
var (
	cv1 = nodeSpec{Name: "C-v1", PhysicalCores: 18, NICGbps: 12.5, MemoryGB: 64, PeakMemBWGBps: 75, PowerWatts: 300}

	cv2 = nodeSpec{Name: "C-v2", PhysicalCores: 26, NICGbps: 25.0, MemoryGB: 64, PeakMemBWGBps: 92, PowerWatts: 350}

	cv3 = nodeSpec{Name: "C-v3", PhysicalCores: 36, NICGbps: 25.0, MemoryGB: 64, PeakMemBWGBps: 83, PowerWatts: 400}

	cvSotA = nodeSpec{Name: "C-vSotA", PhysicalCores: 64, NICGbps: 100.0, MemoryGB: 1024, PeakMemBWGBps: 205, PowerWatts: 700}
)

// generations lists the Table 10 node generations in order.
func generations() []nodeSpec { return []nodeSpec{cv1, cv2, cv3, cvSotA} }

// trainerSpec models a ZionEX-style 8-GPU training node (§2): per-socket
// frontend NICs for data ingestion and a host resource budget for data
// loading.
type trainerSpec struct {
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

// v100Trainer is the 2-socket, 8-V100 node used in the paper's Table 7
// data-stall experiment: two 28-core sockets and two 100 Gbps frontend
// NICs.
var v100Trainer = trainerSpec{
	Name: "V100-2S", GPUs: 8, CPUSockets: 2, CoresPerSock: 28,
	FrontendNICGbps: 200, MemoryGB: 384, PeakMemBWGBps: 256, PowerWatts: 3500,
}

// zionEX is the A100 training node (§2): 4 CPU sockets, each with a
// dedicated 100 Gbps frontend NIC.
var zionEX = trainerSpec{
	Name: "ZionEX", GPUs: 8, CPUSockets: 4, CoresPerSock: 28,
	FrontendNICGbps: 400, MemoryGB: 768, PeakMemBWGBps: 400, PowerWatts: 6500,
}

// saturationThreshold is the memory-bandwidth utilization beyond which
// the paper considers the channel saturated (§6.2: "memory bandwidth
// saturates at ≈70% utilization").
const saturationThreshold = 0.70

// randIOPS reports the disk's sustainable random-I/O rate at the given
// I/O size, in operations per second.
func randIOPS(d hw.DiskSpec, bytes int64) float64 {
	st := d.ServiceTime(bytes)
	if st <= 0 {
		return 0
	}
	return float64(time.Second) / float64(st)
}

// iopsPerWatt reports random 4 KiB IOPS per watt, the efficiency metric
// in §7.2.
func iopsPerWatt(d hw.DiskSpec) float64 {
	return randIOPS(d, 4096) / d.PowerWatts
}

// capacityPerWatt reports TB of capacity per watt.
func capacityPerWatt(d hw.DiskSpec) float64 {
	return d.CapacityTB / d.PowerWatts
}
