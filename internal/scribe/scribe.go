// Package scribe implements a distributed messaging layer in the style of
// Meta's Scribe (§3.1.1 of the paper): services write raw feature and
// event logs to a local daemon, which groups them into record-oriented
// logical streams ("categories") and persists each stream in LogDevice.
//
// Consumers (the ETL jobs in internal/etl) tail categories by LSN.
package scribe

import (
	"fmt"
	"slices"
	"strconv"
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

// Bus routes messages from many daemons into per-category LogDevice
// streams.
type Bus struct {
	store *logdevice.Store

	mu sync.Mutex
	// streams maps each category in use to its backing stream's name.
	streams map[string]string

	// MessagesIn counts messages accepted across all daemons.
	MessagesIn metrics.Counter
	// BytesIn counts payload bytes accepted.
	BytesIn metrics.Counter
}

// NewBus returns a bus persisting into store.
func NewBus(store *logdevice.Store) *Bus {
	return &Bus{store: store, streams: make(map[string]string)}
}

// stream returns the name of the category's backing stream, creating
// the stream on first use, so a name is built once per category.
func (b *Bus) stream(category string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if name, ok := b.streams[category]; ok {
		return name, nil
	}
	name := streamName(category)
	if err := b.store.CreateStream(name); err != nil {
		return "", err
	}
	b.streams[category] = name
	return name, nil
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
	name, err := b.stream(m.Category)
	if err != nil {
		return 0, err
	}
	lsn, _, err := b.store.AppendToken(name, m.Token, m.Payload)
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
	name, err := b.stream(category)
	if err != nil {
		return err
	}
	return b.store.Seal(name)
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

// flushThreshold is the number of buffered messages that makes Log flush.
const flushThreshold = 256

// Daemon is the per-host buffering agent. Services call Log; the daemon
// batches messages and flushes them to the bus in the order they were
// logged. A failed publish leaves the unsent messages buffered, still in
// that order, for the next flush, so a producing service stays available
// while LogDevice misbehaves and no message ever overtakes another.
type Daemon struct {
	Host string

	bus Publisher

	// flushMu serializes flushes: two concurrent flushes would otherwise
	// interleave their batches and reorder the log.
	flushMu sync.Mutex

	mu      sync.Mutex
	pending []Message
	seq     int64
	// spare is the buffer the last flush published, cleared; the next
	// flush hands it to Log as pending. Guarded by flushMu.
	spare []Message

	// Shed and Dropped count nothing: the daemon never refuses a message.
	// They remain because the frozen benchmark (bench/ingest.go) reads
	// them, and go when the benchmark next changes, like
	// dpp.SessionSpec.DataPlane.
	Shed    metrics.Counter
	Dropped metrics.Counter
}

// NewDaemon returns a daemon for host publishing to bus.
func NewDaemon(host string, bus *Bus) *Daemon {
	return &Daemon{Host: host, bus: bus}
}

// Log buffers one message, flushing once flushThreshold messages are
// buffered. A retryable flush failure is absorbed — the messages stay
// buffered for a later flush — because Scribe favours the availability
// of the producing service.
func (d *Daemon) Log(category string, payload []byte) error {
	var tok [64]byte
	d.mu.Lock()
	d.seq++
	token := strconv.AppendInt(append(append(tok[:0], d.Host...), '/'), d.seq, 10)
	d.pending = append(d.pending, Message{
		Category: category,
		Payload:  payload,
		Token:    string(token),
	})
	full := len(d.pending) >= flushThreshold
	d.mu.Unlock()
	if full {
		if err := d.Flush(); err != nil && !faults.IsRetryable(err) {
			return err
		}
	}
	return nil
}

// Flush publishes all buffered messages in order. Flushes are serialized
// so concurrent callers cannot interleave their batches. On the first
// failed publish the unpublished remainder (including the failed
// message) is requeued at the head of the buffer, ahead of anything
// logged meanwhile, and the error is returned: nothing is lost, and
// order holds across categories as well as within one.
func (d *Daemon) Flush() error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	d.mu.Lock()
	batch := d.pending
	d.pending = d.spare
	d.mu.Unlock()

	var err error
	for i, m := range batch {
		if _, err = d.bus.Publish(m); err != nil {
			d.mu.Lock()
			d.pending = slices.Concat(batch[i:], d.pending)
			d.mu.Unlock()
			err = fmt.Errorf("scribe: flush from %s: %w", d.Host, err)
			break
		}
	}
	clear(batch) // a spare pins no payload
	d.spare = batch[:0]
	return err
}

// DrainFlush flushes, pausing 500 µs between attempts, until the
// buffer is empty or the timeout passes; a non-retryable error ends it
// at once. Producers use it at end-of-stream so a transient storm cannot
// strand buffered messages.
func (d *Daemon) DrainFlush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := d.Flush()
		if err == nil && d.PendingCount() == 0 {
			return nil
		}
		if err != nil && !faults.IsRetryable(err) {
			return err
		}
		if !time.Now().Before(deadline) {
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
