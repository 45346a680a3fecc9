package experiments

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPopularityCDFUniform(t *testing.T) {
	p := newPopularityCDF()
	for _, k := range []string{"a", "b", "c", "d"} {
		p.setStored(k, 100)
		p.addTraffic(k, 10)
	}
	if got := p.trafficShare(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("uniform trafficShare(0.5) = %v, want 0.5", got)
	}
	if got := p.trafficShare(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("trafficShare(1) = %v, want 1", got)
	}
	if got := p.trafficShare(0); got != 0 {
		t.Fatalf("trafficShare(0) = %v, want 0", got)
	}
}

func TestPopularityCDFSkewed(t *testing.T) {
	p := newPopularityCDF()
	p.setStored("hot", 100)
	p.addTraffic("hot", 900)
	p.setStored("cold", 900)
	p.addTraffic("cold", 100)
	// 10% of bytes (the hot key) absorbs 90% of traffic.
	if got := p.trafficShare(0.1); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("trafficShare(0.1) = %v, want 0.9", got)
	}
	// Inverse query: 90% of traffic needs ~10% of bytes.
	if got := p.storedShareForTraffic(0.9); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("storedShareForTraffic(0.9) = %v, want ~0.1", got)
	}
}

func TestPopularityCDFPartialKey(t *testing.T) {
	p := newPopularityCDF()
	p.setStored("only", 100)
	p.addTraffic("only", 50)
	// Asking for 50% of stored bytes should credit 50% of the single key's
	// traffic.
	if got := p.trafficShare(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("trafficShare(0.5) = %v, want 0.5", got)
	}
}

func TestPopularityCDFEmpty(t *testing.T) {
	p := newPopularityCDF()
	if got := p.trafficShare(0.5); got != 0 {
		t.Fatalf("empty trafficShare = %v, want 0", got)
	}
}

// Property: trafficShare is monotone non-decreasing in the stored fraction.
func TestPopularityCDFMonotoneProperty(t *testing.T) {
	f := func(stored, traffic []uint16) bool {
		p := newPopularityCDF()
		n := len(stored)
		if len(traffic) < n {
			n = len(traffic)
		}
		if n == 0 {
			return true
		}
		for i := 0; i < n; i++ {
			key := string(rune('a' + i%26))
			p.setStored(key, float64(stored[i])+1)
			p.addTraffic(key, float64(traffic[i]))
		}
		prev := -1.0
		for frac := 0.0; frac <= 1.0; frac += 0.05 {
			v := p.trafficShare(frac)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
