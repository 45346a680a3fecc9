package tiering

import (
	"testing"

	"dsi/internal/hw"
)

func fleetPlan() FleetPlan {
	return FleetPlan{
		DatasetBytes: 12e15, Replication: 3, DemandGBps: 1500,
		AvgIOBytes: 1310720, HDD: hw.HDD, SSD: hw.SSD, DisksPerNode: 36,
		HDDNodeWatts: 500, SSDNodeWatts: 900,
		HotTrafficShare: 0.80, HotBytesShare: 0.39, // Figure 7, RM1
	}
}

func TestTieredBeatsPureHDD(t *testing.T) {
	// §7.2: an SSD tier holding RM1's hot 39% of bytes absorbs 80% of
	// traffic, shrinking the IOPS-driven HDD over-provisioning enough to
	// cut total storage power.
	p := fleetPlan()
	hddOnly := p.PureHDD()
	tiered, err := p.Tiered()
	if err != nil {
		t.Fatal(err)
	}
	if tiered.TotalWatts >= hddOnly.TotalWatts {
		t.Fatalf("tiered %0.f W not below pure HDD %0.f W", tiered.TotalWatts, hddOnly.TotalWatts)
	}
	if tiered.HDDNodes >= hddOnly.HDDNodes {
		t.Fatal("tier did not shrink the HDD fleet")
	}
}

func TestPureSSDIsCapacityBound(t *testing.T) {
	// Storing the whole dataset on SSD — the tier holding every byte and
	// serving all traffic — flips to the unfavourable
	// storage-to-throughput direction (§7.2).
	p := fleetPlan()
	p.HotBytesShare, p.HotTrafficShare = 1, 1
	ssdOnly, err := p.Tiered()
	if err != nil {
		t.Fatal(err)
	}
	capNodes := float64(p.DatasetBytes) * 3 / (p.SSD.CapacityTB * 1e12 * 36)
	if ssdOnly.SSDNodes < capNodes*0.99 {
		t.Fatalf("pure SSD fleet %f nodes below capacity floor %f", ssdOnly.SSDNodes, capNodes)
	}
}

func TestTieredSharesValidation(t *testing.T) {
	p := fleetPlan()
	p.HotTrafficShare = 1.5
	if _, err := p.Tiered(); err == nil {
		t.Fatal("invalid share accepted")
	}
}
