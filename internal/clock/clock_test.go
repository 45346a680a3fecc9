package clock

import (
	"sync"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	c.Advance(5 * time.Second)
	c.Advance(3 * time.Second)
	if got := c.Now(); got != 8*time.Second {
		t.Fatalf("Now() = %v, want 8s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-time.Second)
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
}

func TestTimelineIdleStart(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	tl := NewTimeline(c)
	done := tl.Occupy(100 * time.Millisecond)
	if done != 1100*time.Millisecond {
		t.Fatalf("Occupy completion = %v, want 1.1s", done)
	}
}

func TestTimelineQueueing(t *testing.T) {
	c := New()
	tl := NewTimeline(c)
	first := tl.Occupy(time.Second)
	second := tl.Occupy(time.Second)
	if first != time.Second || second != 2*time.Second {
		t.Fatalf("completions = %v, %v; want 1s, 2s", first, second)
	}
	if got := tl.Occupy(0); got != 2*time.Second {
		t.Fatalf("busy horizon = %v, want 2s", got)
	}
}

func TestTimelineAccounting(t *testing.T) {
	c := New()
	tl := NewTimeline(c)
	tl.Occupy(time.Second)
	tl.Occupy(time.Second)
	tl.Occupy(500 * time.Millisecond)
	if got := tl.BusyTotal(); got != 2500*time.Millisecond {
		t.Fatalf("BusyTotal = %v, want 2.5s", got)
	}
}

func TestTimelineReset(t *testing.T) {
	c := New()
	tl := NewTimeline(c)
	tl.Occupy(time.Second)
	tl.Reset()
	if tl.BusyTotal() != 0 {
		t.Fatal("Reset did not clear accounting")
	}
	if tl.Occupy(0) != time.Second {
		t.Fatal("Reset must keep the busy horizon")
	}
}

func TestTimelineNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Occupy(-1) did not panic")
		}
	}()
	NewTimeline(New()).Occupy(-time.Second)
}

func TestTimelineConcurrentOccupy(t *testing.T) {
	c := New()
	tl := NewTimeline(c)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tl.Occupy(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := tl.BusyTotal(); got != time.Second {
		t.Fatalf("BusyTotal = %v, want 1s", got)
	}
	if got := tl.Occupy(0); got != time.Second {
		t.Fatalf("busy horizon = %v, want 1s", got)
	}
}
