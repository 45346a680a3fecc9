package hw

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dsi/internal/clock"
)

func TestNodeSpecRatios(t *testing.T) {
	// Table 10: C-v1 has 75/18 ≈ 4.2 GB/s/core and 12.5/18 ≈ 0.69 Gbps/core.
	if got := CV1.MemBWPerCore(); math.Abs(got-4.1667) > 0.01 {
		t.Fatalf("C-v1 MemBWPerCore = %v, want ≈4.17", got)
	}
	if got := CV1.NICPerCore(); math.Abs(got-0.6944) > 0.001 {
		t.Fatalf("C-v1 NICPerCore = %v, want ≈0.69", got)
	}
}

func TestMemBWPerCoreShrinksAcrossGenerations(t *testing.T) {
	// §6.3: per-core memory bandwidth decreases from C-v1 to C-v3 while
	// NIC bandwidth per core does not.
	gens := Generations()
	if !(gens[0].MemBWPerCore() > gens[1].MemBWPerCore() && gens[1].MemBWPerCore() > gens[2].MemBWPerCore()) {
		t.Fatal("memory bandwidth per core should shrink from C-v1 to C-v3")
	}
	if gens[3].NICPerCore() <= gens[0].NICPerCore() {
		t.Fatal("NIC per core should grow from C-v1 to C-vSotA")
	}
}

func TestDiskServiceTime(t *testing.T) {
	// 1.8 MB at 180 MB/s = 10 ms transfer + 8 ms seek.
	got := HDD.ServiceTime(1_800_000)
	want := 18 * time.Millisecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

func TestDiskServiceTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative size")
		}
	}()
	HDD.ServiceTime(-1)
}

func TestHDDSeekDominatedSmallReads(t *testing.T) {
	// Table 6/§5.1: at ~20 KB I/O sizes, HDD IOPS are seek-bound (≈123
	// IOPS at 8 ms seek), far below the large-I/O streaming rate.
	small := HDD.RandIOPS(20 << 10)
	large := HDD.RandIOPS(8 << 20)
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
	iopsRatio := SSD.IOPSPerWatt() / HDD.IOPSPerWatt()
	capRatio := SSD.CapacityPerWatt() / HDD.CapacityPerWatt()
	if iopsRatio < 2.5 {
		t.Fatalf("SSD IOPS/W ratio = %.2f, want >2.5x HDD", iopsRatio)
	}
	if capRatio > 0.2 {
		t.Fatalf("SSD capacity/W ratio = %.2f, want <0.2x HDD", capRatio)
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	clk := clock.New()
	d := NewDisk(HDD, clk)
	d.Read("s", 0, 1_800_000)         // random: 18 ms
	d.Read("s", 1_800_000, 1_800_000) // sequential: 10 ms
	want := 28 * time.Millisecond
	if got := d.BusyTotal(); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("BusyTotal = %v, want %v", got, want)
	}
}

func TestDiskNonSequentialPaysSeek(t *testing.T) {
	clk := clock.New()
	d := NewDisk(HDD, clk)
	d.Read("s", 0, 1000)
	d.Read("s", 500_000, 1000) // gap: pays seek
	d.Read("t", 1000, 1000)    // different stream: pays seek
	// All three pay a seek except none are sequential continuations.
	minBusy := 3 * HDD.SeekTime
	if got := d.BusyTotal(); got < minBusy {
		t.Fatalf("BusyTotal = %v, want >= %v", got, minBusy)
	}
}

func TestDiskResetAccounting(t *testing.T) {
	clk := clock.New()
	d := NewDisk(HDD, clk)
	d.Read("s", 0, 1000)
	d.ResetAccounting()
	if d.BusyTotal() != 0 {
		t.Fatal("ResetAccounting did not clear counters")
	}
}

// Property: disk service time is monotone in I/O size.
func TestDiskServiceTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return HDD.ServiceTime(x) <= HDD.ServiceTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RandIOPS decreases as I/O size grows.
func TestRandIOPSMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		return HDD.RandIOPS(x) >= HDD.RandIOPS(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
