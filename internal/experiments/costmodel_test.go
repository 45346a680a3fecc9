package experiments

import (
	"math"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
)

// priceFields lists the modelled quantities of a priced report.
func priceFields(p Priced) []float64 {
	return []float64{p.ExtractCycles, p.TransformCycles, p.TaxCycles,
		p.MemTransform, p.MemExtract, p.MemNetRX, p.MemNetTX}
}

// minus is the report delta a-b over the counters the model prices.
func minus(a, b dpp.ResourceReport) dpp.ResourceReport {
	return dpp.ResourceReport{
		NICRxBytes:    a.NICRxBytes - b.NICRxBytes,
		NICTxBytes:    a.NICTxBytes - b.NICTxBytes,
		DecodedBytes:  a.DecodedBytes - b.DecodedBytes,
		XformCycles:   a.XformCycles - b.XformCycles,
		XformMemBytes: a.XformMemBytes - b.XformMemBytes,
		RowsIn:        a.RowsIn - b.RowsIn,
	}
}

// TestPricingIsLinearInTheCounters pins why the cost model can live
// beside the experiments instead of inside the worker's per-split
// accounting: pricing the report of a whole session equals summing the
// priced report deltas of its splits.
func TestPricingIsLinearInTheCounters(t *testing.T) {
	d, err := defaultDataset(datagen.RM1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpp.NewMaster(d.WH, d.BuildSession(1, profileRead()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := dpp.NewWorker("w", m, d.WH)
	if err != nil {
		t.Fatal(err)
	}
	w.Sink = (*tensorBatch).Release
	var deltas []dpp.ResourceReport
	var prev dpp.ResourceReport
	for {
		ok, err := w.ProcessOneSplit()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rep := w.Report()
		deltas = append(deltas, minus(rep, prev))
		prev = rep
	}
	if len(deltas) < 2 {
		t.Fatalf("session ran %d splits, need several", len(deltas))
	}
	for _, costs := range []CostParams{{}, {Flatmap: true, LocalOpt: true}} {
		costs = d.Costs(costs)
		whole := priceFields(Price(prev, costs))
		sum := make([]float64, len(whole))
		for _, delta := range deltas {
			for i, v := range priceFields(Price(delta, costs)) {
				sum[i] += v
			}
		}
		for i := range whole {
			if whole[i] <= 0 {
				t.Fatalf("%+v: modelled field %d is %v, want accounting for every phase", costs, i, whole[i])
			}
			if math.Abs(whole[i]-sum[i]) > 1e-9*whole[i] {
				t.Fatalf("%+v: field %d priced whole %v, summed over splits %v", costs, i, whole[i], sum[i])
			}
		}
	}
}

func TestCostKnobsChangeThroughput(t *testing.T) {
	// FM and LO must improve modelled worker throughput, as in Table 12:
	// one measured session, priced three ways.
	d, err := defaultDataset(datagen.RM1)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := runWorkerSession(d, d.BuildSession(1, dwrf.ReadOptions{}), CostParams{})
	if err != nil {
		t.Fatal(err)
	}
	tput := func(costs CostParams) float64 {
		return Price(measured.ResourceReport, d.Costs(costs)).CPUBoundThroughput(cv1, 2.5)
	}
	base := tput(CostParams{})
	fm := tput(CostParams{Flatmap: true})
	fmLO := tput(CostParams{Flatmap: true, LocalOpt: true})
	if !(fm > base && fmLO > fm) {
		t.Fatalf("throughput ordering violated: base %.0f fm %.0f fm+lo %.0f", base, fm, fmLO)
	}
}

func TestLoadUtilizationFig8OperatingPoint(t *testing.T) {
	// Figure 8: at RM1's 16.5 GB/s on the 2-socket V100 node, loading
	// costs ≈40% CPU and ≈55% memory bandwidth.
	cpu, mem, nic := LoadUtilization(v100Trainer, 2.5, datagen.RM1.TrainerGBps, DefaultLoadCosts())
	if math.Abs(cpu-0.40) > 0.05 {
		t.Fatalf("CPU util = %.2f, want ≈0.40", cpu)
	}
	if math.Abs(mem-0.55) > 0.06 {
		t.Fatalf("mem util = %.2f, want ≈0.55", mem)
	}
	// RM1 approaches NIC saturation (16.5 GB/s of 25 GB/s wire).
	if nic < 0.5 || nic > 1 {
		t.Fatalf("nic util = %.2f", nic)
	}
}

func TestLoadUtilizationMonotoneInRate(t *testing.T) {
	var prevCPU, prevMem float64
	for rate := 1.0; rate <= 20; rate += 1 {
		cpu, mem, _ := LoadUtilization(v100Trainer, 2.5, rate, DefaultLoadCosts())
		if cpu < prevCPU || mem < prevMem {
			t.Fatalf("utilization decreased at %v GB/s", rate)
		}
		prevCPU, prevMem = cpu, mem
	}
}

func TestLoadUtilizationOrderingAcrossRMs(t *testing.T) {
	// RM1 demands the most loading resources, RM2 the least (Table 8).
	util := func(p datagen.Profile) float64 {
		cpu, _, _ := LoadUtilization(v100Trainer, 2.5, p.TrainerGBps, DefaultLoadCosts())
		return cpu
	}
	if !(util(datagen.RM1) > util(datagen.RM3) && util(datagen.RM3) > util(datagen.RM2)) {
		t.Fatal("per-model loading cost ordering should follow Table 8 demand")
	}
}

func TestHostPreprocessingStallsTable7(t *testing.T) {
	// Table 7: preprocessing RM1 on the trainer's own CPUs stalls the
	// GPUs ~56% of the time at ~92% CPU and ~54% memory BW utilization.
	cfg := HostPreprocessConfig{
		Node:                   v100Trainer,
		GHz:                    2.5,
		DemandGBps:             datagen.RM1.TrainerGBps,
		PreprocCyclesPerByte:   17.8,
		PreprocMemBytesPerByte: 19.0,
		RawAmplification:       2.0,
	}
	rep, err := cfg.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.GPUStallPct-56) > 8 {
		t.Fatalf("stall = %.1f%%, want ≈56%%", rep.GPUStallPct)
	}
	if math.Abs(rep.CPUUtilPct-92) > 10 {
		t.Fatalf("CPU = %.1f%%, want ≈92%%", rep.CPUUtilPct)
	}
	if math.Abs(rep.MemBWUtilPct-54) > 10 {
		t.Fatalf("memBW = %.1f%%, want ≈54%%", rep.MemBWUtilPct)
	}
}

func TestHostPreprocessingNoStallWhenCheap(t *testing.T) {
	cfg := HostPreprocessConfig{
		Node: v100Trainer, GHz: 2.5, DemandGBps: 1,
		PreprocCyclesPerByte: 1, PreprocMemBytesPerByte: 1, RawAmplification: 1,
	}
	rep, err := cfg.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUStallPct != 0 {
		t.Fatalf("stall = %.1f%%, want 0", rep.GPUStallPct)
	}
}

func TestHostPreprocessingRejectsZeroDemand(t *testing.T) {
	cfg := HostPreprocessConfig{Node: v100Trainer}
	if _, err := cfg.Evaluate(); err == nil {
		t.Fatal("zero demand accepted")
	}
}
