package experiments

import (
	"fmt"
	"math"
	"sort"

	"dsi/internal/hw"
)

// The global training fleet of §4.2 and §7.3: geo-distributed regions
// with fixed compute capacity, a global scheduler that places training
// jobs (and therefore dataset replicas) across regions, and the
// storage-provisioning math of §7.1 (capacity- vs IOPS-driven node
// counts and the 8x throughput-to-storage gap).

// region is one geographic region with multiple datacenters.
type region struct {
	Name string
	// ComputeCapacity is trainer-node capacity in relative units.
	ComputeCapacity float64
}

// modelDemand is one model's total training compute demand.
type modelDemand struct {
	Model  string
	Demand float64
	// DatasetPB is the model's dataset size (for storage accounting).
	DatasetPB float64
}

// placement maps model -> region -> assigned compute.
type placement map[string]map[string]float64

// regionsOf lists regions a model landed in.
func (p placement) regionsOf(model string) []string {
	var out []string
	for r, v := range p[model] {
		if v > 0 {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// storagePB reports the total dataset storage the placement implies:
// each region hosting any part of a model's training needs a full
// replica of its dataset (§4.2).
func (p placement) storagePB(demands []modelDemand) float64 {
	var total float64
	for _, d := range demands {
		total += d.DatasetPB * float64(len(p.regionsOf(d.Model)))
	}
	return total
}

// scheduler places model demand onto regions.
type scheduler struct {
	Regions []region
}

// balanceAcrossRegions is the paper's current policy: spread every
// model's demand across all regions proportionally to capacity,
// requiring every region to hold a replica of every dataset.
func (s *scheduler) balanceAcrossRegions(demands []modelDemand) (placement, error) {
	var totalCap float64
	for _, r := range s.Regions {
		totalCap += r.ComputeCapacity
	}
	if totalCap == 0 {
		return nil, fmt.Errorf("fleet: no capacity")
	}
	p := make(placement)
	for _, d := range demands {
		p[d.Model] = make(map[string]float64)
		for _, r := range s.Regions {
			p[d.Model][r.Name] = d.Demand * r.ComputeCapacity / totalCap
		}
	}
	return p, nil
}

// binPack is the §7.3 alternative: place each model in as few regions as
// possible (largest models first, best-fit by remaining capacity),
// reducing dataset replication at the cost of less balancing. Returns an
// error if demand exceeds total capacity.
func (s *scheduler) binPack(demands []modelDemand) (placement, error) {
	remaining := make(map[string]float64, len(s.Regions))
	for _, r := range s.Regions {
		remaining[r.Name] = r.ComputeCapacity
	}
	sorted := append([]modelDemand(nil), demands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Demand > sorted[j].Demand })

	p := make(placement)
	for _, d := range sorted {
		p[d.Model] = make(map[string]float64)
		need := d.Demand
		for need > 1e-12 {
			// Best fit: the region with the most remaining capacity.
			best := ""
			var bestCap float64
			for name, c := range remaining {
				if c > bestCap {
					best, bestCap = name, c
				}
			}
			if bestCap <= 1e-12 {
				return nil, fmt.Errorf("fleet: demand %.2f of model %s unplaceable", need, d.Model)
			}
			take := math.Min(need, bestCap)
			p[d.Model][best] += take
			remaining[best] -= take
			need -= take
		}
	}
	return p, nil
}

// storageProvision is the §7.1 storage-layer sizing calculation.
type storageProvision struct {
	// DatasetPB is the logical dataset size to store.
	DatasetPB float64
	// Replication is the durability replication factor (3 in the
	// paper).
	Replication int
	// RequiredReadGBps is the aggregate storage read throughput the
	// training fleet demands.
	RequiredReadGBps float64
	// AvgIOBytes is the average read I/O size (Table 6: ~23 KB before
	// coalescing, ~1.25 MB after).
	AvgIOBytes int64
	// Disk is the storage medium.
	Disk hw.DiskSpec
	// DisksPerNode is how many spindles one storage node hosts.
	DisksPerNode int
}

// nodesForCapacity reports the node count needed to hold the replicated
// dataset.
func (s storageProvision) nodesForCapacity() float64 {
	perNodeTB := s.Disk.CapacityTB * float64(s.DisksPerNode)
	return s.DatasetPB * 1000 * float64(s.Replication) / perNodeTB
}

// nodesForIOPS reports the node count needed to serve the read
// throughput at the configured I/O size.
func (s storageProvision) nodesForIOPS() float64 {
	perDiskGBps := randIOPS(s.Disk, s.AvgIOBytes) * float64(s.AvgIOBytes) / 1e9
	perNodeGBps := perDiskGBps * float64(s.DisksPerNode)
	return s.RequiredReadGBps / perNodeGBps
}

// throughputToStorageGap reports nodesForIOPS / nodesForCapacity — the
// over-provisioning factor the paper measures at >8x (§7.1).
func (s storageProvision) throughputToStorageGap() float64 {
	c := s.nodesForCapacity()
	if c == 0 {
		return 0
	}
	return s.nodesForIOPS() / c
}

// growthPoint is one month of Figure 2's fleet trends.
type growthPoint struct {
	Month          int
	DatasetSize    float64 // normalized to month 0
	IngestBandwidt float64 // normalized to month 0
}

// growthTrace reproduces Figure 2: dataset sizes grew over 2x and
// ingestion bandwidth over 4x in two years, compounding monthly.
func growthTrace(months int) []growthPoint {
	sizeRate := math.Pow(2.05, 1.0/24)   // slightly above 2x per 24 months
	bwRate := math.Pow(4.1, 1.0/24)      // slightly above 4x per 24 months
	out := make([]growthPoint, months+1) // inclusive of month 0
	for m := 0; m <= months; m++ {
		out[m] = growthPoint{
			Month:          m,
			DatasetSize:    math.Pow(sizeRate, float64(m)),
			IngestBandwidt: math.Pow(bwRate, float64(m)),
		}
	}
	return out
}
