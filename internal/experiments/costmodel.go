package experiments

import (
	"fmt"

	"dsi/internal/dpp"
)

// This file is the paper's cost model, applied offline to what the
// system measured. A DPP worker counts bytes, rows and busy time
// (dpp.ResourceReport); Price reads those counts as CPU cycles and
// memory traffic, and the methods on Priced place them on a node
// generation of hardware.go (§6.3, Table 9, Figure 9, Table 12). The
// trainer-side models of Table 7 and Figure 8 sit below it. The model
// is linear in the counters, so pricing a session's total equals
// summing its priced splits.

// CostParams models the per-byte and per-cycle costs of the worker data
// plane that the paper measures: extraction (decode) cycles, the
// "datacenter tax" of TLS + deserialization on every network byte
// (§6.2), TLS memory-bandwidth amplification (§7.2: 3x), and the
// row-map materialization penalty removed by the in-memory flatmap
// (§7.5). Zero fields take the defaults below.
type CostParams struct {
	// ExtractCyclesPerByte is decode CPU per raw (decoded) byte.
	ExtractCyclesPerByte float64
	// RowMapPenalty multiplies extract cycles and memory traffic when
	// decoding into row maps instead of the flatmap representation (FM
	// off). Paper: FM improved worker throughput ~15%.
	RowMapPenalty float64
	// LocalOptFactor divides all CPU costs when build/localized
	// optimizations (LO) are enabled. Paper: +28% throughput.
	LocalOptFactor float64
	// TaxCyclesPerByte is the datacenter-tax CPU per storage RX byte
	// (TLS plus Thrift-style deserialization).
	TaxCyclesPerByte float64
	// TxTaxCyclesPerByte is the tax per tensor TX byte. The default
	// prices the framed stream: its flat-binary codec's single append
	// pass leaves mostly the TLS share of the tax (§6.2 splits the tax
	// roughly evenly between TLS and (de)serialization). A model of the
	// paper's Thrift-era fleet sets it to TaxCyclesPerByte's 1.7.
	TxTaxCyclesPerByte float64
	// TLSMemAmplification multiplies memory traffic for NIC bytes
	// (paper: TLS amplifies memory bandwidth 3x).
	TLSMemAmplification float64
	// ExtractMemBytesPerByte is memory traffic per decoded byte
	// (decompress + reconstruct copies).
	ExtractMemBytesPerByte float64
	// XformCycleScale scales transformation CPU and memory cost to the
	// model's intensity (RM1's transforms are the most expensive, §6.3).
	XformCycleScale float64
	// ThreadResidentGB is the resident memory one preprocessing thread
	// pins (buffers, dictionaries, intermediates). When large, the
	// worker's thread pool is capped by memory capacity rather than
	// core count — RM3's situation in §6.3 ("bound on memory capacity,
	// forcing us to limit the worker thread pool size to avoid OOM").
	ThreadResidentGB float64
	// LocalOpt enables the LO optimizations.
	LocalOpt bool
	// Flatmap uses the in-memory flatmap batch representation (FM).
	Flatmap bool
}

func (c CostParams) withDefaults() CostParams {
	if c.ExtractCyclesPerByte == 0 {
		c.ExtractCyclesPerByte = 13
	}
	if c.RowMapPenalty == 0 {
		c.RowMapPenalty = 1.35
	}
	if c.LocalOptFactor == 0 {
		c.LocalOptFactor = 1.28
	}
	if c.TaxCyclesPerByte == 0 {
		c.TaxCyclesPerByte = 1.7
	}
	if c.TxTaxCyclesPerByte == 0 {
		c.TxTaxCyclesPerByte = 0.8
	}
	if c.TLSMemAmplification == 0 {
		c.TLSMemAmplification = 3.0
	}
	if c.ExtractMemBytesPerByte == 0 {
		c.ExtractMemBytesPerByte = 36
	}
	if c.XformCycleScale == 0 {
		c.XformCycleScale = 1
	}
	return c
}

// cpuDivisor is the factor CPU work is divided by under LO.
func (c CostParams) cpuDivisor() float64 {
	if c.LocalOpt {
		return c.LocalOptFactor
	}
	return 1
}

// extractMultiplier is the row-map penalty when FM is off.
func (c CostParams) extractMultiplier() float64 {
	if c.Flatmap {
		return 1
	}
	return c.RowMapPenalty
}

// Priced is a worker's measured report read through the cost model,
// split by the categories the paper measures (Fig 9: transformation,
// extraction, and miscellaneous CPU cycles; §6.3: memory traffic by
// source).
type Priced struct {
	dpp.ResourceReport

	// CPU cycles by phase.
	ExtractCycles   float64
	TransformCycles float64
	TaxCycles       float64 // datacenter tax: TLS, deserialization, RPC framing

	// Memory traffic (bytes) by source, mirroring the paper's LLC-miss
	// attribution (50.4% transforms, 24.9% extraction, 16.4% net RX,
	// 4.7% net TX for RM2 on C-v2).
	MemTransform float64
	MemExtract   float64
	MemNetRX     float64
	MemNetTX     float64

	// ThreadResidentGB is resident memory pinned per thread
	// (CostParams.ThreadResidentGB); zero means no memory-capacity limit.
	ThreadResidentGB float64
}

// Price applies the cost model to a worker's measured counters.
func Price(r dpp.ResourceReport, c CostParams) Priced {
	c = c.withDefaults()
	decoded, rx, tx := float64(r.DecodedBytes), float64(r.NICRxBytes), float64(r.NICTxBytes)
	return Priced{
		ResourceReport:   r,
		ExtractCycles:    decoded * c.ExtractCyclesPerByte * c.extractMultiplier() / c.cpuDivisor(),
		TransformCycles:  float64(r.XformCycles) * c.XformCycleScale / c.cpuDivisor(),
		TaxCycles:        rx*c.TaxCyclesPerByte + tx*c.TxTaxCyclesPerByte,
		MemExtract:       decoded * c.ExtractMemBytesPerByte * c.extractMultiplier(),
		MemTransform:     float64(r.XformMemBytes) * c.XformCycleScale,
		MemNetRX:         rx * c.TLSMemAmplification,
		MemNetTX:         tx * c.TLSMemAmplification / 2,
		ThreadResidentGB: c.ThreadResidentGB,
	}
}

// usableCores is how many of the node's cores the workload can keep busy.
// Memory-capacity-bound models (RM3, §6.3) run with a thread pool sized
// to what fits in 90% of the node's memory to avoid OOM; capped reports
// that this limit, not the core count, is what binds.
func (p Priced) usableCores(node nodeSpec) (cores int, capped bool) {
	if p.ThreadResidentGB > 0 {
		if limit := max(1, int(node.MemoryGB*0.9/p.ThreadResidentGB)); limit < node.PhysicalCores {
			return limit, true
		}
	}
	return node.PhysicalCores, false
}

// TotalCPUCycles sums all CPU phases.
func (p Priced) TotalCPUCycles() float64 {
	return p.ExtractCycles + p.TransformCycles + p.TaxCycles
}

// TotalMemBytes sums all memory traffic.
func (p Priced) TotalMemBytes() float64 {
	return p.MemTransform + p.MemExtract + p.MemNetRX + p.MemNetTX
}

// BusySeconds converts the accounted work into per-domain busy time on
// the given node, assuming the given core clock. The bottleneck domain
// is the one with the largest busy time.
func (p Priced) BusySeconds(node nodeSpec, ghz float64) (cpu, mem, nicRx, nicTx float64) {
	cores, _ := p.usableCores(node)
	cpu = p.TotalCPUCycles() / (ghz * 1e9 * float64(cores))
	mem = p.TotalMemBytes() / (node.PeakMemBWGBps * 1e9)
	nicRx = float64(p.NICRxBytes*8) / (node.NICGbps * 1e9)
	nicTx = float64(p.NICTxBytes*8) / (node.NICGbps * 1e9)
	return cpu, mem, nicRx, nicTx
}

// Bottleneck names the dominant resource on the given node. A CPU
// bottleneck caused by a memory-capacity-limited thread pool is reported
// as "memcap".
func (p Priced) Bottleneck(node nodeSpec, ghz float64) string {
	cpu, mem, nicRx, nicTx := p.BusySeconds(node, ghz)
	best, name := cpu, "cpu"
	if _, capped := p.usableCores(node); capped {
		name = "memcap"
	}
	if mem > best {
		best, name = mem, "membw"
	}
	if nicRx+nicTx > best {
		name = "nic"
	}
	return name
}

// SaturatedThroughput reports rows/sec when the node runs its bottleneck
// resource at 100%.
func (p Priced) SaturatedThroughput(node nodeSpec, ghz float64) float64 {
	cpu, mem, nicRx, nicTx := p.BusySeconds(node, ghz)
	busy := max(cpu, mem, nicRx+nicTx)
	if busy == 0 {
		return 0
	}
	return float64(p.RowsIn) / busy
}

// CPUBoundThroughput reports rows/sec when the node's CPU alone is the
// limit. Table 12's "DPP throughput" column tracks this quantity: the
// paper attributes the FF/FM/LO gains to reductions in CPU cycles spent
// extracting and converting data.
func (p Priced) CPUBoundThroughput(node nodeSpec, ghz float64) float64 {
	cpu, _, _, _ := p.BusySeconds(node, ghz)
	if cpu == 0 {
		return 0
	}
	return float64(p.RowsIn) / cpu
}

// Utilizations reports each domain's utilization when the bottleneck is
// saturated (the operating point the paper measures in Fig 9).
func (p Priced) Utilizations(node nodeSpec, ghz float64) (cpu, mem, nic float64) {
	c, m, rx, tx := p.BusySeconds(node, ghz)
	busy := max(c, m, rx+tx)
	if busy == 0 {
		return 0, 0, 0
	}
	return c / busy, m / busy, (rx + tx) / busy
}

// LoadCostParams models the per-byte host cost of loading preprocessed
// tensors (no extraction or transformation): the network stack, memory
// management, and the "datacenter tax" of TLS decryption and Thrift
// deserialization (§6.2).
type LoadCostParams struct {
	// CyclesPerByte is host CPU per loaded tensor byte.
	CyclesPerByte float64
	// MemBytesPerByte is memory traffic per loaded byte (TLS + copies
	// through the host to device memory).
	MemBytesPerByte float64
}

// DefaultLoadCosts reproduces Figure 8's operating points: at RM1's
// 16.5 GB/s a 2-socket trainer spends ≈40% of CPU cycles and ≈55% of
// memory bandwidth just loading data.
func DefaultLoadCosts() LoadCostParams {
	return LoadCostParams{CyclesPerByte: 3.4, MemBytesPerByte: 8.5}
}

// LoadUtilization computes front-end host utilization at a given tensor
// loading rate (the Figure 8 sweep). Utilizations are clamped to 1.
func LoadUtilization(node trainerSpec, ghz float64, loadGBps float64, costs LoadCostParams) (cpuUtil, memUtil, nicUtil float64) {
	cores := float64(node.CPUSockets * node.CoresPerSock)
	cpuUtil = clamp01(loadGBps * 1e9 * costs.CyclesPerByte / (ghz * 1e9 * cores))
	memUtil = clamp01(loadGBps * 1e9 * costs.MemBytesPerByte / (node.PeakMemBWGBps * 1e9))
	nicUtil = clamp01(loadGBps * 8 / node.FrontendNICGbps)
	return cpuUtil, memUtil, nicUtil
}

// HostPreprocessConfig describes the pre-DPP architecture (Table 7): the
// trainer's own CPUs extract and transform raw data while the GPUs
// train.
type HostPreprocessConfig struct {
	Node trainerSpec
	GHz  float64
	// DemandGBps is the GPUs' tensor ingestion demand (Table 8).
	DemandGBps float64
	// PreprocCyclesPerByte is host CPU per output tensor byte for
	// extract+transform (far above loading-only costs).
	PreprocCyclesPerByte float64
	// PreprocMemBytesPerByte is memory traffic per output tensor byte.
	PreprocMemBytesPerByte float64
	// RawAmplification is raw-bytes-read per tensor byte produced
	// (§6.3: extraction reads 1.18-3.64x more than it emits).
	RawAmplification float64
}

// StallReport is the Table 7 measurement.
type StallReport struct {
	// GPUStallPct is the percentage of GPU time spent waiting for data.
	GPUStallPct float64
	// CPUUtilPct is host CPU utilization.
	CPUUtilPct float64
	// MemBWUtilPct is host memory bandwidth utilization.
	MemBWUtilPct float64
	// SupplyGBps is the achievable preprocessing throughput.
	SupplyGBps float64
	// NICUtilPct is frontend NIC utilization (raw ingest).
	NICUtilPct float64
}

// Evaluate computes the steady-state stall behaviour: supply is the rate
// at which host resources can produce tensors; the GPUs stall for
// whatever fraction of demand is unmet.
func (c HostPreprocessConfig) Evaluate() (StallReport, error) {
	if c.DemandGBps <= 0 {
		return StallReport{}, fmt.Errorf("experiments: trainer demand must be positive")
	}
	cores := float64(c.Node.CPUSockets * c.Node.CoresPerSock)
	cpuCapGBps := c.GHz * 1e9 * cores / c.PreprocCyclesPerByte / 1e9
	memCapGBps := c.Node.PeakMemBWGBps * saturationThreshold / c.PreprocMemBytesPerByte
	nicCapGBps := c.Node.FrontendNICGbps / 8 / c.RawAmplification

	supply := min(cpuCapGBps, memCapGBps, nicCapGBps)
	served := min(supply, c.DemandGBps)
	rep := StallReport{
		GPUStallPct:  100 * (1 - served/c.DemandGBps),
		CPUUtilPct:   100 * clamp01(served*c.PreprocCyclesPerByte*1e9/(c.GHz*1e9*cores)),
		MemBWUtilPct: 100 * clamp01(served*c.PreprocMemBytesPerByte/c.Node.PeakMemBWGBps),
		NICUtilPct:   100 * clamp01(served*c.RawAmplification*8/c.Node.FrontendNICGbps),
		SupplyGBps:   supply,
	}
	return rep, nil
}

func clamp01(v float64) float64 {
	return max(0, min(1, v))
}
