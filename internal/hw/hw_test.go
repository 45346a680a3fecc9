package hw

import (
	"testing"
	"testing/quick"
	"time"

	"dsi/internal/clock"
)

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
