package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"dsi/internal/hw"
)

func TestNodeSpecRatios(t *testing.T) {
	// Table 10: C-v1 has 75/18 ≈ 4.2 GB/s/core and 12.5/18 ≈ 0.69 Gbps/core.
	if got := cv1.memBWPerCore(); math.Abs(got-4.1667) > 0.01 {
		t.Fatalf("C-v1 memBWPerCore = %v, want ≈4.17", got)
	}
	if got := cv1.nicPerCore(); math.Abs(got-0.6944) > 0.001 {
		t.Fatalf("C-v1 nicPerCore = %v, want ≈0.69", got)
	}
}

func TestMemBWPerCoreShrinksAcrossGenerations(t *testing.T) {
	// §6.3: per-core memory bandwidth decreases from C-v1 to C-v3 while
	// NIC bandwidth per core does not.
	gens := generations()
	if !(gens[0].memBWPerCore() > gens[1].memBWPerCore() && gens[1].memBWPerCore() > gens[2].memBWPerCore()) {
		t.Fatal("memory bandwidth per core should shrink from C-v1 to C-v3")
	}
	if gens[3].nicPerCore() <= gens[0].nicPerCore() {
		t.Fatal("NIC per core should grow from C-v1 to C-vSotA")
	}
}

func TestHDDSeekDominatedSmallReads(t *testing.T) {
	// Table 6/§5.1: at ~20 KB I/O sizes, HDD IOPS are seek-bound (≈123
	// IOPS at 8 ms seek), far below the large-I/O streaming rate.
	small := randIOPS(hw.HDD, 20<<10)
	large := randIOPS(hw.HDD, 8<<20)
	if small < 100 || small > 130 {
		t.Fatalf("small-read IOPS = %v, want ~123", small)
	}
	bwSmall := small * float64(20<<10)
	bwLarge := large * float64(8<<20)
	if bwLarge/bwSmall < 20 {
		t.Fatalf("large I/O bandwidth should dominate small (got %.1fx)", bwLarge/bwSmall)
	}
}

func TestSSDvsHDDEfficiency(t *testing.T) {
	// §7.2: SSD ≈ 326% IOPS/W and ≈9% capacity/W of HDD.
	iopsRatio := iopsPerWatt(hw.SSD) / iopsPerWatt(hw.HDD)
	capRatio := capacityPerWatt(hw.SSD) / capacityPerWatt(hw.HDD)
	if iopsRatio < 2.5 {
		t.Fatalf("SSD IOPS/W ratio = %.2f, want >2.5x HDD", iopsRatio)
	}
	if capRatio > 0.2 {
		t.Fatalf("SSD capacity/W ratio = %.2f, want <0.2x HDD", capRatio)
	}
}

// Property: randIOPS decreases as I/O size grows.
func TestRandIOPSMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		return randIOPS(hw.HDD, x) >= randIOPS(hw.HDD, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
