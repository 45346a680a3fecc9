// Package clock provides a virtual time source shared by all simulated
// devices in the DSI pipeline.
//
// Every hardware model (disks, NICs, memory channels, CPU cores) accounts
// the service time of each operation against a Clock. A single simulation
// can therefore run many orders of magnitude faster than wall time while
// still yielding consistent utilization, throughput, and latency figures.
package clock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual time source. The zero value is
// a clock at time 0 and is ready to use.
//
// Clock is safe for concurrent use; simulated devices typically advance
// their own private "busy until" horizon and use the shared clock only for
// the global notion of now.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Advancing by a negative duration is
// a programming error and panics: virtual time never rewinds.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %v", d))
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Timeline tracks a device's busy horizon on top of a shared clock. It
// models a single serial resource (one disk arm, one NIC serializer): each
// operation occupies the device for its service time, and operations queue
// behind one another.
type Timeline struct {
	mu        sync.Mutex
	clock     *Clock
	busyUntil time.Duration
	busyTotal time.Duration
}

// NewTimeline returns a Timeline layered on clock.
func NewTimeline(clock *Clock) *Timeline {
	return &Timeline{clock: clock}
}

// Occupy schedules an operation with the given service time and returns the
// simulated completion time. If the device is idle the operation starts at
// the clock's current now; otherwise it queues behind prior work.
func (t *Timeline) Occupy(service time.Duration) time.Duration {
	if service < 0 {
		panic(fmt.Sprintf("clock: negative service time %v", service))
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.busyUntil
	if start < now {
		start = now
	}
	t.busyUntil = start + service
	t.busyTotal += service
	return t.busyUntil
}

// BusyTotal reports the cumulative service time accounted on this device.
func (t *Timeline) BusyTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busyTotal
}

// Reset zeroes the accounted busy time but keeps the busy horizon, so a
// measurement window can be restarted mid-simulation.
func (t *Timeline) Reset() {
	t.mu.Lock()
	t.busyTotal = 0
	t.mu.Unlock()
}
