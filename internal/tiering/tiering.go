// Package tiering implements the heterogeneous-storage proposal of §7.2:
// an SSD tier in front of the HDD-based storage layer that holds the most
// commonly-used feature streams — the paper's "placing commonly-used
// features on SSD-based caches" opportunity. FleetPlan sizes the storage
// fleet and its power with and without that tier.
package tiering

import (
	"fmt"

	"dsi/internal/hw"
)

// FleetPlan compares storage fleets for a given dataset and throughput
// demand, with and without the SSD tier.
type FleetPlan struct {
	DatasetBytes int64
	Replication  int
	DemandGBps   float64
	AvgIOBytes   int64
	HDD, SSD     hw.DiskSpec
	DisksPerNode int
	HDDNodeWatts float64
	SSDNodeWatts float64
	// HotTrafficShare is the fraction of traffic the SSD tier absorbs
	// (from the Figure 7 CDF).
	HotTrafficShare float64
	// HotBytesShare is the fraction of dataset bytes on SSD.
	HotBytesShare float64
}

// Evaluation is the power outcome of one fleet layout.
type Evaluation struct {
	HDDNodes, SSDNodes float64
	TotalWatts         float64
}

func (p FleetPlan) nodesFor(disk hw.DiskSpec, bytes int64, gbps float64) (nodes float64) {
	capNodes := float64(bytes) * float64(p.Replication) / (disk.CapacityTB * 1e12 * float64(p.DisksPerNode))
	perDiskGBps := disk.RandIOPS(p.AvgIOBytes) * float64(p.AvgIOBytes) / 1e9
	iopsNodes := gbps / (perDiskGBps * float64(p.DisksPerNode))
	if iopsNodes > capNodes {
		return iopsNodes
	}
	return capNodes
}

// PureHDD sizes an all-HDD fleet (the paper's status quo: IOPS-driven
// over-provisioning).
func (p FleetPlan) PureHDD() Evaluation {
	n := p.nodesFor(p.HDD, p.DatasetBytes, p.DemandGBps)
	return Evaluation{HDDNodes: n, TotalWatts: n * p.HDDNodeWatts}
}

// Tiered sizes the hybrid: SSDs hold the hot bytes and absorb the hot
// traffic; HDDs hold everything (durability copies) but serve only the
// cold remainder.
func (p FleetPlan) Tiered() (Evaluation, error) {
	if p.HotTrafficShare < 0 || p.HotTrafficShare > 1 || p.HotBytesShare < 0 || p.HotBytesShare > 1 {
		return Evaluation{}, fmt.Errorf("tiering: shares out of range")
	}
	ssdBytes := int64(float64(p.DatasetBytes) * p.HotBytesShare)
	ssd := p.nodesFor(p.SSD, ssdBytes, p.DemandGBps*p.HotTrafficShare)
	hdd := p.nodesFor(p.HDD, p.DatasetBytes, p.DemandGBps*(1-p.HotTrafficShare))
	return Evaluation{
		HDDNodes:   hdd,
		SSDNodes:   ssd,
		TotalWatts: hdd*p.HDDNodeWatts + ssd*p.SSDNodeWatts,
	}, nil
}
