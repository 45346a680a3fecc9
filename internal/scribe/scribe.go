// Package scribe implements a distributed messaging layer in the style of
// Meta's Scribe (§3.1.1 of the paper): services write raw feature and
// event logs to a local daemon, which groups them into record-oriented
// logical streams ("categories") and persists each stream in LogDevice.
//
// Consumers (the ETL jobs in internal/etl) tail categories by LSN.
package scribe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dsi/internal/logdevice"
	"dsi/internal/metrics"
	"dsi/internal/tectonic/faults"
)

// Message is one log entry produced by a service.
type Message struct {
	// Category routes the message to a logical stream (e.g.
	// "rm1/features", "rm1/events").
	Category string
	// Payload is the serialized log line.
	Payload []byte
	// Token, when non-empty, makes the publish idempotent: a retry of a
	// message whose previous attempt landed but lost its ack (torn
	// write) deduplicates in LogDevice instead of double-appending.
	// Daemons stamp one per logged message.
	Token string
}

// ErrDeferred marks a flush that published nothing for some category
// because its circuit breaker is open: the messages are requeued intact
// and LogDevice was not touched. Transient by definition — a later
// flush retries once the breaker's backoff window passes.
var ErrDeferred = errors.New("scribe: flush deferred by open circuit breaker")

// Retryable reports whether a flush error is transient: deferred by an
// open breaker, or retryable per the storage error taxonomy. Producers
// that favour availability keep logging through these; the daemon
// retries the buffered messages on later flushes.
func Retryable(err error) bool {
	return errors.Is(err, ErrDeferred) || faults.IsRetryable(err)
}

// Bus routes messages from many daemons into per-category LogDevice
// streams.
type Bus struct {
	store *logdevice.Store

	mu         sync.Mutex
	categories map[string]bool

	// MessagesIn counts messages accepted across all daemons.
	MessagesIn metrics.Counter
	// BytesIn counts payload bytes accepted.
	BytesIn metrics.Counter
}

// NewBus returns a bus persisting into store.
func NewBus(store *logdevice.Store) *Bus {
	return &Bus{store: store, categories: make(map[string]bool)}
}

// ensureCategory creates the backing stream on first use.
func (b *Bus) ensureCategory(category string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.categories[category] {
		return nil
	}
	if err := b.store.CreateStream(streamName(category)); err != nil {
		return err
	}
	b.categories[category] = true
	return nil
}

func streamName(category string) string { return "scribe/" + category }

// Publish writes one message to its category's stream. A message
// carrying a write token publishes idempotently: retries after a torn
// ack resolve to the landed record instead of appending twice, and the
// message is counted once.
func (b *Bus) Publish(m Message) (logdevice.LSN, error) {
	if m.Category == "" {
		return 0, fmt.Errorf("scribe: empty category")
	}
	if err := b.ensureCategory(m.Category); err != nil {
		return 0, err
	}
	lsn, _, err := b.store.AppendToken(streamName(m.Category), m.Token, m.Payload)
	if err != nil {
		return 0, err
	}
	// A failed attempt (including a torn ack) counts nothing, so the
	// eventual success — fresh append or ledger dedup — counts exactly
	// once.
	b.MessagesIn.Inc()
	b.BytesIn.Add(int64(len(m.Payload)))
	return lsn, nil
}

// CloseCategory marks a category as ended by its producer: further
// Publishes fail, and consumers that drained to the tail can treat the
// category as complete rather than idle. Closing is idempotent and
// creates the backing stream if it does not exist yet, so a producer
// that logged nothing can still signal end-of-stream.
func (b *Bus) CloseCategory(category string) error {
	if category == "" {
		return fmt.Errorf("scribe: empty category")
	}
	if err := b.ensureCategory(category); err != nil {
		return err
	}
	return b.store.Seal(streamName(category))
}

// Closed reports whether the category has been closed by its producer.
// A category that was never published to reports false.
func (b *Bus) Closed(category string) bool {
	sealed, err := b.store.IsSealed(streamName(category))
	return err == nil && sealed
}

// Changed returns a channel closed on the category's next append or
// close, letting tailing consumers idle without busy-polling. The
// category must exist.
func (b *Bus) Changed(category string) (<-chan struct{}, error) {
	return b.store.Changed(streamName(category))
}

// Tail returns up to max messages from the category starting at LSN from.
func (b *Bus) Tail(category string, from logdevice.LSN, max int) ([]logdevice.Record, error) {
	return b.store.ReadFrom(streamName(category), from, max)
}

// TailLSN reports one past the last LSN in the category.
func (b *Bus) TailLSN(category string) (logdevice.LSN, error) {
	return b.store.Tail(streamName(category))
}

// Trim deletes category records up to and including upTo, releasing
// storage once downstream ETL has consumed them.
func (b *Bus) Trim(category string, upTo logdevice.LSN) error {
	return b.store.Trim(streamName(category), upTo)
}

// Publisher is the daemon's view of the bus: a sink for one message at a
// time. It is an interface so tests can inject failing or blocking
// publishers to exercise the flush error paths.
type Publisher interface {
	Publish(m Message) (logdevice.LSN, error)
}

// breaker is one category's circuit-breaker state: consecutive publish
// failures, and the capped-exponential window the category stays open
// (fast-failing) for after tripping.
type breaker struct {
	fails     int
	window    time.Duration
	openUntil time.Time
}

// Daemon is the per-host buffering agent. Services call Log; the daemon
// batches messages and flushes them to the bus, preserving order within a
// category. Three mechanisms keep a producing service available while
// LogDevice misbehaves: a per-category circuit breaker with capped
// exponential backoff (a down store is not hot-polled — flushes defer
// the category and touch nothing), watermark backpressure (crossing the
// high watermark makes the logging call pay a synchronous flush until
// the buffer falls below the low watermark), and counted shedding (with
// the breaker open and the buffer at its limit, new messages are shed
// rather than wedging the producer).
type Daemon struct {
	Host string

	bus Publisher

	// flushMu serializes flushes: two concurrent flushes would otherwise
	// interleave their batches and reorder a category.
	flushMu sync.Mutex

	mu      sync.Mutex
	pending []Message
	// FlushThreshold is the number of buffered messages that triggers an
	// automatic flush.
	FlushThreshold int

	// Dropped counts messages rejected because the buffer is full (while
	// the breaker is closed — transient pressure, not a down store).
	Dropped metrics.Counter
	// BufferLimit caps pending messages; zero means unlimited.
	BufferLimit int

	// HighWatermark, when > 0, arms backpressure: once the buffer
	// reaches it, every Log performs a synchronous flush until the
	// buffer falls to half of it.
	HighWatermark int
	backpressured bool

	// BreakerThreshold is the consecutive publish failures that trip a
	// category's breaker (default 2). BreakerBase is the first open
	// window, doubling per re-trip up to BreakerMax (defaults 5ms /
	// 500ms).
	BreakerThreshold int
	BreakerBase      time.Duration
	BreakerMax       time.Duration
	// Now is the breaker's clock; nil means time.Now. Tests inject a
	// fake to pin backoff behaviour.
	Now func() time.Time

	breakers map[string]*breaker
	seq      int64

	// Shed counts messages shed because the buffer was full while the
	// category's breaker was open — the store is down and staying down,
	// so the daemon sheds load instead of blocking the service.
	Shed metrics.Counter
	// BreakerOpens counts breaker trips to the open state.
	BreakerOpens metrics.Counter
}

// NewDaemon returns a daemon for host publishing to bus.
func NewDaemon(host string, bus *Bus) *Daemon {
	return &Daemon{Host: host, bus: bus, FlushThreshold: 256}
}

func (d *Daemon) clockNow() time.Time {
	if d.Now != nil {
		return d.Now()
	}
	return time.Now()
}

func (d *Daemon) breakerThreshold() int {
	if d.BreakerThreshold > 0 {
		return d.BreakerThreshold
	}
	return 2
}

func (d *Daemon) breakerBase() time.Duration {
	if d.BreakerBase > 0 {
		return d.BreakerBase
	}
	return 5 * time.Millisecond
}

func (d *Daemon) breakerMax() time.Duration {
	if d.BreakerMax > 0 {
		return d.BreakerMax
	}
	return 500 * time.Millisecond
}

// breakerOpenLocked reports whether category's breaker is open at now.
// Callers must hold d.mu.
func (d *Daemon) breakerOpenLocked(category string, now time.Time) bool {
	br := d.breakers[category]
	return br != nil && now.Before(br.openUntil)
}

// recordFailure counts one publish failure against category's breaker,
// tripping it open (with a doubling, capped window) at the threshold.
func (d *Daemon) recordFailure(category string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.breakers == nil {
		d.breakers = make(map[string]*breaker)
	}
	br := d.breakers[category]
	if br == nil {
		br = &breaker{}
		d.breakers[category] = br
	}
	br.fails++
	if br.fails < d.breakerThreshold() {
		return
	}
	if br.window == 0 {
		br.window = d.breakerBase()
	} else if br.window < d.breakerMax() {
		br.window *= 2
		if br.window > d.breakerMax() {
			br.window = d.breakerMax()
		}
	}
	br.openUntil = d.clockNow().Add(br.window)
	d.BreakerOpens.Inc()
}

// recordSuccess resets category's breaker after a successful publish.
func (d *Daemon) recordSuccess(category string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if br := d.breakers[category]; br != nil && (br.fails > 0 || br.window > 0) {
		br.fails = 0
		br.window = 0
		br.openUntil = time.Time{}
	}
}

// Log buffers one message, flushing if the threshold (or an armed high
// watermark) is reached. If the buffer is at its limit the message is
// shed and counted — against Shed when the category's breaker is open
// (LogDevice is down and staying down), against Dropped otherwise —
// Scribe favours availability of the producing service over delivery
// guarantees. Transient flush failures are absorbed: the messages stay
// buffered for a later retry and the producer is not failed.
func (d *Daemon) Log(category string, payload []byte) error {
	d.mu.Lock()
	if d.BufferLimit > 0 && len(d.pending) >= d.BufferLimit {
		shed := d.breakerOpenLocked(category, d.clockNow())
		d.mu.Unlock()
		if shed {
			d.Shed.Inc()
		} else {
			d.Dropped.Inc()
		}
		return nil
	}
	d.seq++
	d.pending = append(d.pending, Message{
		Category: category,
		Payload:  payload,
		Token:    fmt.Sprintf("%s/%d", d.Host, d.seq),
	})
	n := len(d.pending)
	if d.HighWatermark > 0 {
		if n >= d.HighWatermark {
			d.backpressured = true
		} else if n <= d.HighWatermark/2 {
			d.backpressured = false
		}
	}
	shouldFlush := n >= d.FlushThreshold ||
		(d.backpressured && !d.breakerOpenLocked(category, d.clockNow()))
	d.mu.Unlock()
	if shouldFlush {
		if err := d.Flush(); err != nil && !Retryable(err) {
			return err
		}
	}
	return nil
}

// Flush publishes all buffered messages in order. Flushes are serialized
// so concurrent callers cannot interleave their batches within a
// category; if a publish fails mid-batch the unpublished remainder
// (including the failed message) is requeued at the head of the buffer,
// ahead of anything logged meanwhile, so nothing is lost and order holds
// per category. Categories whose breaker is open are deferred wholesale —
// their messages are requeued untouched and LogDevice is not polled —
// and the flush reports ErrDeferred if everything else published.
func (d *Daemon) Flush() error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	d.mu.Lock()
	batch := d.pending
	d.pending = nil
	now := d.clockNow()
	var blocked map[string]bool
	for cat, br := range d.breakers {
		if now.Before(br.openUntil) {
			if blocked == nil {
				blocked = make(map[string]bool)
			}
			blocked[cat] = true
		}
	}
	d.mu.Unlock()

	var kept []Message // deferred messages, in order
	for i, m := range batch {
		if blocked[m.Category] {
			kept = append(kept, m)
			continue
		}
		if _, err := d.bus.Publish(m); err != nil {
			d.recordFailure(m.Category)
			d.mu.Lock()
			requeued := make([]Message, 0, len(kept)+len(batch)-i+len(d.pending))
			requeued = append(requeued, kept...)
			requeued = append(requeued, batch[i:]...)
			requeued = append(requeued, d.pending...)
			d.pending = requeued
			d.mu.Unlock()
			return fmt.Errorf("scribe: flush from %s: %w", d.Host, err)
		}
		d.recordSuccess(m.Category)
	}
	if len(kept) > 0 {
		d.mu.Lock()
		requeued := make([]Message, 0, len(kept)+len(d.pending))
		requeued = append(requeued, kept...)
		requeued = append(requeued, d.pending...)
		d.pending = requeued
		d.mu.Unlock()
		return fmt.Errorf("scribe: flush from %s held %d messages: %w", d.Host, len(kept), ErrDeferred)
	}
	return nil
}

// DrainFlush flushes until the buffer is empty, honouring breaker
// backoff between attempts (the store is polled only when a breaker
// window has passed), or until the deadline. Producers use it at
// end-of-stream so a transient storm cannot strand buffered messages.
func (d *Daemon) DrainFlush(timeout time.Duration) error {
	deadline := d.clockNow().Add(timeout)
	for {
		err := d.Flush()
		if err == nil && d.PendingCount() == 0 {
			return nil
		}
		if err != nil && !Retryable(err) {
			return err
		}
		if !d.clockNow().Before(deadline) {
			return fmt.Errorf("scribe: drain from %s timed out with %d messages buffered (last: %v)",
				d.Host, d.PendingCount(), err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// PendingCount reports buffered messages awaiting flush.
func (d *Daemon) PendingCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}
