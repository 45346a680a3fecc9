package experiments

import (
	"math"
	"testing"

	"dsi/internal/hw"
)

func testRegions() []region {
	return []region{
		{Name: "R1", ComputeCapacity: 100},
		{Name: "R2", ComputeCapacity: 80},
		{Name: "R3", ComputeCapacity: 60},
		{Name: "R4", ComputeCapacity: 40},
		{Name: "R5", ComputeCapacity: 20},
	}
}

func testDemands() []modelDemand {
	return []modelDemand{
		{Model: "A", Demand: 90, DatasetPB: 13},
		{Model: "B", Demand: 60, DatasetPB: 29},
		{Model: "C", Demand: 40, DatasetPB: 3},
		{Model: "D", Demand: 25, DatasetPB: 8},
	}
}

func TestBalanceSpreadsEverywhere(t *testing.T) {
	s := &scheduler{Regions: testRegions()}
	p, err := s.balanceAcrossRegions(testDemands())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDemands() {
		if got := len(p.regionsOf(d.Model)); got != 5 {
			t.Fatalf("model %s in %d regions, want 5", d.Model, got)
		}
	}
	// Proportional to capacity: R1 gets 100/300 of each model.
	if got := p["A"]["R1"]; math.Abs(got-30) > 1e-9 {
		t.Fatalf("A in R1 = %v, want 30", got)
	}
}

func TestBalanceNoCapacity(t *testing.T) {
	s := &scheduler{Regions: []region{{Name: "empty"}}}
	if _, err := s.balanceAcrossRegions(testDemands()); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestBinPackReducesStorage(t *testing.T) {
	// §7.3: bin-packing jobs into fewer regions cuts dataset
	// replication versus balancing everywhere.
	s := &scheduler{Regions: testRegions()}
	balanced, err := s.balanceAcrossRegions(testDemands())
	if err != nil {
		t.Fatal(err)
	}
	packed, err := s.binPack(testDemands())
	if err != nil {
		t.Fatal(err)
	}
	sb, sp := balanced.storagePB(testDemands()), packed.storagePB(testDemands())
	if sp >= sb {
		t.Fatalf("bin-packed storage %.1f PB not below balanced %.1f PB", sp, sb)
	}
}

func TestBinPackConservesDemand(t *testing.T) {
	s := &scheduler{Regions: testRegions()}
	p, err := s.binPack(testDemands())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDemands() {
		var placed float64
		for _, v := range p[d.Model] {
			placed += v
		}
		if math.Abs(placed-d.Demand) > 1e-9 {
			t.Fatalf("model %s placed %.2f of %.2f", d.Model, placed, d.Demand)
		}
	}
	// Regional totals must respect capacity.
	peak := make(map[string]float64)
	for _, byRegion := range p {
		for r, v := range byRegion {
			peak[r] += v
		}
	}
	for _, r := range testRegions() {
		if peak[r.Name] > r.ComputeCapacity+1e-9 {
			t.Fatalf("region %s over capacity: %.2f > %.2f", r.Name, peak[r.Name], r.ComputeCapacity)
		}
	}
}

func TestBinPackOverCapacity(t *testing.T) {
	s := &scheduler{Regions: []region{{Name: "R1", ComputeCapacity: 10}}}
	if _, err := s.binPack(testDemands()); err == nil {
		t.Fatal("over-capacity demand accepted")
	}
}

func TestStorageGapIsLarge(t *testing.T) {
	// §7.1: even at the production operating point (coalesced ~1.25 MB
	// I/Os), serving the fleet's read throughput from HDDs needs ~8x
	// more nodes than storing the triplicated data.
	prov := storageProvision{
		DatasetPB:        12,
		Replication:      3,
		RequiredReadGBps: 1500,
		AvgIOBytes:       1310720,
		Disk:             hw.HDD,
		DisksPerNode:     36,
	}
	gap := prov.throughputToStorageGap()
	if gap < 6 || gap > 11 {
		t.Fatalf("throughput-to-storage gap = %.1fx, want ≈8x", gap)
	}
}

func TestCoalescingClosesStorageGap(t *testing.T) {
	// With 1.25 MB coalesced I/Os the same demand needs far fewer
	// IOPS-driven nodes.
	small := storageProvision{
		DatasetPB: 12, Replication: 3, RequiredReadGBps: 600,
		AvgIOBytes: 23 << 10, Disk: hw.HDD, DisksPerNode: 36,
	}
	big := small
	big.AvgIOBytes = 1310720
	if big.throughputToStorageGap() > small.throughputToStorageGap()/5 {
		t.Fatalf("coalescing should cut the gap >5x: %.2f vs %.2f",
			big.throughputToStorageGap(), small.throughputToStorageGap())
	}
}

func TestSSDFlipsTheGap(t *testing.T) {
	// On SSDs the same throughput is easy but capacity is expensive —
	// the paper's argument for tiered/heterogeneous storage (§7.2).
	prov := storageProvision{
		DatasetPB: 12, Replication: 3, RequiredReadGBps: 600,
		AvgIOBytes: 23 << 10, Disk: hw.SSD, DisksPerNode: 36,
	}
	if gap := prov.throughputToStorageGap(); gap > 1 {
		t.Fatalf("SSD gap = %.2f, want <1 (capacity-bound)", gap)
	}
}

func TestGrowthTraceFig2(t *testing.T) {
	trace := growthTrace(24)
	if len(trace) != 25 {
		t.Fatalf("trace length = %d", len(trace))
	}
	last := trace[24]
	if last.DatasetSize < 2.0 || last.DatasetSize > 2.3 {
		t.Fatalf("24-month dataset growth = %.2fx, want >2x", last.DatasetSize)
	}
	if last.IngestBandwidt < 4.0 || last.IngestBandwidt > 4.5 {
		t.Fatalf("24-month bandwidth growth = %.2fx, want >4x", last.IngestBandwidt)
	}
	// Monotone growth.
	for m := 1; m < len(trace); m++ {
		if trace[m].DatasetSize <= trace[m-1].DatasetSize {
			t.Fatal("dataset growth not monotone")
		}
	}
}
