// Package faults models storage-node failure as data: a Schedule is a
// seeded, deterministic timetable of per-node fault windows on the
// cluster's virtual clock. The tectonic read path consults it on every
// chunk I/O, so chaos runs are exactly reproducible — same seed, same
// schedule, same byte-level outcome — which is what lets the chaos e2e
// assert exact checksums while nodes brown out underneath it.
//
// Four fault states cover the paper's operational reality (§7.1 keeps
// three replicas precisely because nodes die, straggle, and rot):
//
//   - Down: every read addressed to the node fails with ErrNodeDown.
//   - Flaky: reads fail with a seeded probability (transient I/O errors).
//   - Slow: reads complete, but service latency is multiplied (brownout /
//     straggler) — the trigger for hedged reads.
//   - Corrupting: reads return the stored bytes with a deterministically
//     chosen bit flipped (silent corruption; only checksums catch it).
//
// Three more states are write-shaped and visible only through WriteState,
// mirroring the same design onto the append path: WriteFailing (appends
// fail cleanly), WriteTorn (appends land but the ack is lost — the case
// that forces idempotent write tokens), and SealFlaky (metadata-plane seal failures, keyed to MetaNode). Read and
// write storms compose on one schedule without perturbing each other;
// Down is the one state both views share.
//
// All randomness is derived by hashing the seed with the identity of the
// read (node, stream, offset, attempt), never from shared RNG state, so
// outcomes do not depend on goroutine interleaving.
package faults

import (
	"time"
)

// State is a node's health at one instant of virtual time.
type State int

const (
	// Healthy serves reads normally.
	Healthy State = iota
	// Down fails every read.
	Down
	// Flaky fails reads with probability Window.ErrProb.
	Flaky
	// Slow serves reads with latency multiplied by Window.SlowFactor.
	Slow
	// Corrupting serves reads with one bit flipped.
	Corrupting

	// The states below are write-shaped: they are matched only by
	// WriteState (the write path's view of a node) and are invisible to
	// NodeState, so a write storm never perturbs read behaviour — and
	// vice versa. Down is the one state both views share.

	// WriteFailing fails appends with probability Window.ErrProb before
	// any byte is applied (a clean write error).
	WriteFailing
	// WriteTorn applies the append to every replica, then fails the
	// acknowledgement with probability Window.ErrProb (a torn ack): the
	// bytes are durable but the writer sees an error. Only tokened
	// retries recover without duplicating.
	WriteTorn
	// SealFlaky fails file seals with probability Window.ErrProb. Seal
	// is a metadata operation, so SealFlaky windows are keyed to the
	// MetaNode pseudo-node rather than a storage node.
	SealFlaky
)

// MetaNode is the pseudo-node identity for metadata-plane fault windows
// (seal failures), which have no storage node to attach to.
const MetaNode = -1

// String names the state for logs and test output.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Down:
		return "down"
	case Flaky:
		return "flaky"
	case Slow:
		return "slow"
	case Corrupting:
		return "corrupting"
	case WriteFailing:
		return "write-failing"
	case WriteTorn:
		return "write-torn"
	case SealFlaky:
		return "seal-flaky"
	}
	return "unknown"
}

// WriteShaped reports whether the state applies to the write path only.
func (s State) WriteShaped() bool {
	return s >= WriteFailing && s <= SealFlaky
}

// Window puts one node into a fault state for a span of virtual time.
// Until <= From means "until forever". When windows overlap, the
// latest-added one wins.
type Window struct {
	Node  int
	State State
	From  time.Duration
	Until time.Duration
	// ErrProb is the per-read failure probability for Flaky windows
	// (default 0.5).
	ErrProb float64
	// SlowFactor multiplies read service latency for Slow windows
	// (default 4).
	SlowFactor float64
}

// active reports whether the window covers virtual time now.
func (w Window) active(now time.Duration) bool {
	return now >= w.From && (w.Until <= w.From || now < w.Until)
}

// Schedule is a seeded timetable of fault windows. The zero value and
// the nil schedule are both "no faults ever". Schedules are built once
// (Add/Down/Flaky/Slow/Corrupting) and then only read, so they are safe
// for concurrent use by the read path without locking.
type Schedule struct {
	seed    uint64
	windows []Window
}

// NewSchedule creates an empty schedule whose probabilistic draws and
// corruption positions derive from seed.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{seed: uint64(seed)}
}

// Add appends a window and returns the schedule for chaining.
func (s *Schedule) Add(w Window) *Schedule {
	if w.State == Flaky && w.ErrProb <= 0 {
		w.ErrProb = 0.5
	}
	if w.State == Slow && w.SlowFactor <= 1 {
		w.SlowFactor = 4
	}
	if (w.State == WriteFailing || w.State == WriteTorn || w.State == SealFlaky) && w.ErrProb <= 0 {
		w.ErrProb = 0.5
	}
	if w.State == SealFlaky {
		w.Node = MetaNode
	}
	s.windows = append(s.windows, w)
	return s
}

// Down takes node offline for [from, until).
func (s *Schedule) Down(node int, from, until time.Duration) *Schedule {
	return s.Add(Window{Node: node, State: Down, From: from, Until: until})
}

// Flaky makes node fail reads with probability p during [from, until).
func (s *Schedule) Flaky(node int, from, until time.Duration, p float64) *Schedule {
	return s.Add(Window{Node: node, State: Flaky, From: from, Until: until, ErrProb: p})
}

// Slow multiplies node read latency by factor during [from, until).
func (s *Schedule) Slow(node int, from, until time.Duration, factor float64) *Schedule {
	return s.Add(Window{Node: node, State: Slow, From: from, Until: until, SlowFactor: factor})
}

// Corrupting makes node serve bit-flipped bytes during [from, until).
func (s *Schedule) Corrupting(node int, from, until time.Duration) *Schedule {
	return s.Add(Window{Node: node, State: Corrupting, From: from, Until: until})
}

// FailWrites makes node fail appends with probability p during
// [from, until), before any byte lands.
func (s *Schedule) FailWrites(node int, from, until time.Duration, p float64) *Schedule {
	return s.Add(Window{Node: node, State: WriteFailing, From: from, Until: until, ErrProb: p})
}

// TornWrites makes node tear append acknowledgements with probability p
// during [from, until): the bytes land, the ack is lost.
func (s *Schedule) TornWrites(node int, from, until time.Duration, p float64) *Schedule {
	return s.Add(Window{Node: node, State: WriteTorn, From: from, Until: until, ErrProb: p})
}

// FailSeals makes file seals fail with probability p during
// [from, until). Seal windows attach to MetaNode.
func (s *Schedule) FailSeals(from, until time.Duration, p float64) *Schedule {
	return s.Add(Window{Node: MetaNode, State: SealFlaky, From: from, Until: until, ErrProb: p})
}

// Windows returns the schedule's windows (for display; do not mutate).
func (s *Schedule) Windows() []Window {
	if s == nil {
		return nil
	}
	return s.windows
}

// NodeState returns node's state as the READ path sees it at virtual
// time now: write-shaped windows are skipped, so a node that only fails
// writes still serves reads normally. A nil schedule is always Healthy.
// The latest matching window wins.
func (s *Schedule) NodeState(node int, now time.Duration) (State, Window) {
	if s == nil {
		return Healthy, Window{}
	}
	for i := len(s.windows) - 1; i >= 0; i-- {
		w := s.windows[i]
		if w.Node == node && w.active(now) && !w.State.WriteShaped() {
			return w.State, w
		}
	}
	return Healthy, Window{Node: node}
}

// WriteState returns node's state as the WRITE path sees it at virtual
// time now: write-shaped windows plus Down (an offline node fails both
// directions); read-only fault states are invisible. A nil schedule is
// always Healthy. The latest matching window wins.
func (s *Schedule) WriteState(node int, now time.Duration) (State, Window) {
	if s == nil {
		return Healthy, Window{}
	}
	for i := len(s.windows) - 1; i >= 0; i-- {
		w := s.windows[i]
		if w.Node == node && w.active(now) && (w.State.WriteShaped() || w.State == Down) {
			return w.State, w
		}
	}
	return Healthy, Window{Node: node}
}

// SealFires makes the deterministic draw for one seal attempt of path at
// virtual time now: true when an active SealFlaky window fires. attempt
// must vary across retries of the same seal.
func (s *Schedule) SealFires(path string, now time.Duration, attempt int) bool {
	if s == nil {
		return false
	}
	for i := len(s.windows) - 1; i >= 0; i-- {
		w := s.windows[i]
		if w.State == SealFlaky && w.active(now) {
			return s.Fires(w.ErrProb, MetaNode, path, 0, attempt)
		}
	}
	return false
}

// fnv-1a over the draw identity, seeded. Keying draws by read identity
// (instead of consuming shared RNG state) keeps chaos runs independent
// of goroutine scheduling.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (s *Schedule) draw(node int, stream string, offset, salt int64) uint64 {
	h := uint64(fnvOffset64) ^ s.seed
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	mix(uint64(node))
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= fnvPrime64
	}
	mix(uint64(offset))
	mix(uint64(salt))
	return h
}

// Fires makes a deterministic pseudo-random draw that is true with
// probability p, keyed by the read's identity. attempt must vary across
// retries of the same read or a flaky node would fail it forever.
func (s *Schedule) Fires(p float64, node int, stream string, offset int64, attempt int) bool {
	if s == nil || p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := s.draw(node, stream, offset, int64(attempt))
	return float64(h>>11)/float64(1<<53) < p
}

// Jitter derives a deterministic backoff jitter in [0, max), keyed by
// the read's identity, so retry timing is reproducible yet decorrelated
// across concurrent readers. A nil schedule jitters by zero.
func (s *Schedule) Jitter(max time.Duration, node int, stream string, offset int64, attempt int) time.Duration {
	if s == nil || max <= 0 {
		return 0
	}
	h := s.draw(node, stream, offset, int64(attempt)^(1<<40))
	return time.Duration(h % uint64(max))
}

// CorruptBit picks the deterministic bit to flip in an n-byte payload
// served by a corrupting node: a byte position in [0, n) and a one-bit
// mask. Deterministic per (node, stream, offset), so re-reading the same
// bytes from the same bad replica yields the same corruption — exactly
// how a rotted sector behaves.
func (s *Schedule) CorruptBit(node int, stream string, offset, n int64) (pos int64, mask byte) {
	if n <= 0 {
		return 0, 1
	}
	h := s.draw(node, stream, offset, -1)
	return int64(h % uint64(n)), 1 << ((h >> 56) & 7)
}
