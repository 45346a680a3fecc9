// Package etl implements the offline data-generation path of §3.1.1: a
// streaming engine that joins raw feature logs with outcome event logs
// from Scribe, labels the joined records, and materializes them as
// schematized samples in warehouse partitions. Pipeline is the one way
// to run it: it tails both categories, seals partitions of PartitionRows
// rows through a write-ahead cursor log, and ends when the producer
// closes the categories; a bounded backlog is simply a stream that is
// already closed.
//
// The join is windowed: a feature log waits up to a fixed number of
// processed records for its matching event; if none arrives the sample
// is emitted with a negative label (no observed engagement), so the
// pipeline tolerates event loss. The window is symmetric: an event that
// arrives before its feature log — Scribe guarantees order only within a
// category, and a backlogged drain delivers the sparse event stream far
// ahead of the feature batch cursor — is buffered for the same window and
// joins when the feature catches up, so out-of-order delivery across
// categories never flips a label.
package etl

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/logdevice"
	"dsi/internal/metrics"
	"dsi/internal/schema"
	"dsi/internal/scribe"
)

// Sink receives labeled samples from the joiner, each with its source
// feature log's EventTime (Unix nanoseconds, zero if unknown), letting
// partition writers record event-time bounds for freshness accounting.
type Sink interface {
	EmitTimed(s *schema.Sample, eventTime int64) error
}

// Joiner incrementally joins one model's feature and event streams.
type Joiner struct {
	Model string
	// window is how many feature records a pending join may age before
	// being flushed unlabeled (negative); NewJoiner sets 4096.
	window int

	bus *scribe.Bus

	featCursor  logdevice.LSN
	eventCursor logdevice.LSN

	pending map[int64]*pendingEntry
	order   []orderEntry // FIFO of pending joins for window eviction
	seq     int64        // records processed, drives window ageing
	sink    Sink

	earlyEvents map[int64]*earlyEvent
	eventOrder  []orderEntry // FIFO of early events for window eviction

	// Steps counts Step calls, empty ones included: a joiner with no input
	// is waiting (InputChanged), not stepping, so an idle one stands still.
	Steps metrics.Counter
	// Joined counts samples emitted with an observed event.
	Joined metrics.Counter
	// Expired counts samples emitted because the window elapsed.
	Expired metrics.Counter
	// OrphanEvents counts events whose feature log never arrived within
	// the window (or duplicate events for an already-buffered request).
	OrphanEvents metrics.Counter
	// Poisoned counts undecodable log records skipped (the cursor still
	// advances so one corrupt record cannot wedge the stream).
	Poisoned metrics.Counter
	// DuplicateFeatures counts feature logs whose RequestID collided with
	// a pending join; the displaced entry is emitted as a negative rather
	// than silently dropped.
	DuplicateFeatures metrics.Counter
}

type pendingEntry struct {
	feat *datagen.FeatureLog
	seq  int64
}

// earlyEvent is an event log that arrived before its feature log; it waits
// in the same window for the feature to catch up.
type earlyEvent struct {
	engaged bool
	seq     int64
}

// orderEntry is one FIFO slot. The seq disambiguates slots whose request
// ID was re-used by a duplicate feature log: a slot only speaks for the
// pending entry that still carries its seq.
type orderEntry struct {
	id  int64
	seq int64
}

// NewJoiner returns a joiner reading model's categories from bus and
// emitting into sink.
func NewJoiner(model string, bus *scribe.Bus, sink Sink) *Joiner {
	return &Joiner{
		Model:       model,
		window:      4096,
		bus:         bus,
		featCursor:  1,
		eventCursor: 1,
		pending:     make(map[int64]*pendingEntry),
		earlyEvents: make(map[int64]*earlyEvent),
		sink:        sink,
	}
}

// emit converts a feature log plus label into a sample.
func (j *Joiner) emit(feat *datagen.FeatureLog, engaged bool) error {
	s := schema.NewSample()
	s.DenseFeatures = feat.Dense
	s.SparseFeatures = feat.Sparse
	if engaged {
		s.Label = 1
	}
	return j.sink.EmitTimed(s, feat.EventTime)
}

// Step consumes up to batch records from each stream and advances the
// join. It reports how many records were consumed in total.
func (j *Joiner) Step(batch int) (int, error) {
	j.Steps.Inc()
	consumed := 0

	feats, err := j.bus.Tail(datagen.FeatureCategory(j.Model), j.featCursor, batch)
	if err != nil && !isMissingCategory(err) {
		return 0, err
	}
	for _, rec := range feats {
		j.featCursor = rec.LSN + 1
		consumed++
		fl, err := datagen.DecodeFeatureLog(rec.Payload)
		if err != nil {
			// A poison record must not wedge the stream: the cursor has
			// already advanced, so count it and move on.
			j.Poisoned.Inc()
			continue
		}
		j.seq++
		if ev, ok := j.earlyEvents[fl.RequestID]; ok {
			// The event outran its feature log; join immediately.
			delete(j.earlyEvents, fl.RequestID)
			if err := j.emit(fl, ev.engaged); err != nil {
				return consumed, err
			}
			j.Joined.Inc()
			continue
		}
		if old, ok := j.pending[fl.RequestID]; ok {
			// A duplicate RequestID displaces the earlier pending join.
			// Emit the displaced entry as an unobserved negative instead
			// of silently dropping the sample; its FIFO slot goes stale
			// (seq mismatch) and is skipped at eviction time.
			j.DuplicateFeatures.Inc()
			delete(j.pending, fl.RequestID)
			if err := j.emit(old.feat, false); err != nil {
				return consumed, err
			}
			j.Expired.Inc()
		}
		j.pending[fl.RequestID] = &pendingEntry{feat: fl, seq: j.seq}
		j.order = append(j.order, orderEntry{id: fl.RequestID, seq: j.seq})
	}

	events, err := j.bus.Tail(datagen.EventCategory(j.Model), j.eventCursor, batch)
	if err != nil && !isMissingCategory(err) {
		return consumed, err
	}
	for _, rec := range events {
		j.eventCursor = rec.LSN + 1
		consumed++
		ev, err := datagen.DecodeEventLog(rec.Payload)
		if err != nil {
			j.Poisoned.Inc()
			continue
		}
		entry, ok := j.pending[ev.RequestID]
		if !ok {
			// Cross-category delivery order is not guaranteed: buffer the
			// early event for the window instead of dropping it, so a
			// feature log still in the backlog keeps its true label. A
			// second event for an already-buffered request is a duplicate.
			if _, dup := j.earlyEvents[ev.RequestID]; dup {
				j.OrphanEvents.Inc()
				continue
			}
			j.earlyEvents[ev.RequestID] = &earlyEvent{engaged: ev.Engaged, seq: j.seq}
			j.eventOrder = append(j.eventOrder, orderEntry{id: ev.RequestID, seq: j.seq})
			continue
		}
		delete(j.pending, ev.RequestID)
		if err := j.emit(entry.feat, ev.Engaged); err != nil {
			return consumed, err
		}
		j.Joined.Inc()
	}

	if err := j.evictExpired(); err != nil {
		return consumed, err
	}
	return consumed, nil
}

// evictExpired flushes pending joins older than the window as negatives.
func (j *Joiner) evictExpired() error {
	cutoff := j.seq - int64(j.window)
	for len(j.order) > 0 {
		slot := j.order[0]
		entry, ok := j.pending[slot.id]
		if !ok || entry.seq != slot.seq { // joined, or displaced by a duplicate
			j.order = j.order[1:]
			continue
		}
		if entry.seq > cutoff {
			break
		}
		j.order = j.order[1:]
		delete(j.pending, slot.id)
		if err := j.emit(entry.feat, false); err != nil {
			return err
		}
		j.Expired.Inc()
	}
	// Early events age the same way; one whose feature never arrived
	// within the window is a true orphan.
	for len(j.eventOrder) > 0 {
		slot := j.eventOrder[0]
		ev, ok := j.earlyEvents[slot.id]
		if !ok || ev.seq != slot.seq { // joined, or re-buffered later
			j.eventOrder = j.eventOrder[1:]
			continue
		}
		if ev.seq > cutoff {
			break
		}
		j.eventOrder = j.eventOrder[1:]
		delete(j.earlyEvents, slot.id)
		j.OrphanEvents.Inc()
	}
	return nil
}

// Flush force-emits all pending joins as negatives (end of partition).
func (j *Joiner) Flush() error {
	for _, slot := range j.order {
		entry, ok := j.pending[slot.id]
		if !ok || entry.seq != slot.seq {
			continue
		}
		delete(j.pending, slot.id)
		if err := j.emit(entry.feat, false); err != nil {
			return err
		}
		j.Expired.Inc()
	}
	j.order = nil
	for range j.earlyEvents {
		j.OrphanEvents.Inc()
	}
	j.earlyEvents = make(map[int64]*earlyEvent)
	j.eventOrder = nil
	return nil
}

// PendingCount reports in-flight joins.
func (j *Joiner) PendingCount() int { return len(j.pending) }

// TrimConsumed trims the Scribe categories up to the join cursors,
// releasing LogDevice storage the pipeline no longer needs.
func (j *Joiner) TrimConsumed() error {
	if j.featCursor > 1 {
		if err := j.bus.Trim(datagen.FeatureCategory(j.Model), j.featCursor-1); err != nil && !isMissingCategory(err) {
			return err
		}
	}
	if j.eventCursor > 1 {
		if err := j.bus.Trim(datagen.EventCategory(j.Model), j.eventCursor-1); err != nil && !isMissingCategory(err) {
			return err
		}
	}
	return nil
}

// InputChanged returns one channel per category, closed on that
// category's next append or close (scribe.Bus.Changed). Take them before
// a Step and wait on them only after the Step consumed nothing, so a
// record appended in between is never missed. ok=false means at least
// one category does not exist yet — nothing was ever published to it —
// and its channel is nil: there is no stream to wait on.
func (j *Joiner) InputChanged() (feat, event <-chan struct{}, ok bool) {
	feat, ferr := j.bus.Changed(datagen.FeatureCategory(j.Model))
	event, eerr := j.bus.Changed(datagen.EventCategory(j.Model))
	return feat, event, ferr == nil && eerr == nil
}

// EndOfStream reports whether the producer closed both of the model's
// categories and the joiner has consumed every record up to their tails.
// Once true, no further input can arrive and pending joins may be
// flushed as negatives.
func (j *Joiner) EndOfStream() bool {
	feat, event := datagen.FeatureCategory(j.Model), datagen.EventCategory(j.Model)
	if !j.bus.Closed(feat) || !j.bus.Closed(event) {
		return false
	}
	ft, err := j.bus.TailLSN(feat)
	if err != nil || j.featCursor < ft {
		return false
	}
	et, err := j.bus.TailLSN(event)
	if err != nil || j.eventCursor < et {
		return false
	}
	return true
}

// joinerState is the gob image of a joiner's resume point: stream
// cursors, the ageing clock, and the in-flight joins in FIFO order.
type joinerState struct {
	FeatCursor  logdevice.LSN
	EventCursor logdevice.LSN
	Seq         int64
	Entries     []savedEntry
	Events      []savedEvent
}

type savedEntry struct {
	ID   int64
	Seq  int64
	Feat *datagen.FeatureLog
}

type savedEvent struct {
	ID      int64
	Seq     int64
	Engaged bool
}

// Checkpoint serializes the joiner's resume state. Restoring it on a
// fresh joiner reproduces the exact join continuation — including
// pending entries awaiting their events — so a crashed pipeline neither
// re-emits nor loses samples. Metric counters are process-local and not
// part of the state.
func (j *Joiner) Checkpoint() ([]byte, error) {
	st := joinerState{FeatCursor: j.featCursor, EventCursor: j.eventCursor, Seq: j.seq}
	for _, slot := range j.order {
		entry, ok := j.pending[slot.id]
		if !ok || entry.seq != slot.seq {
			continue
		}
		st.Entries = append(st.Entries, savedEntry{ID: slot.id, Seq: slot.seq, Feat: entry.feat})
	}
	for _, slot := range j.eventOrder {
		ev, ok := j.earlyEvents[slot.id]
		if !ok || ev.seq != slot.seq {
			continue
		}
		st.Events = append(st.Events, savedEvent{ID: slot.id, Seq: slot.seq, Engaged: ev.engaged})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("etl: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the joiner's cursors and in-flight joins with a
// previously checkpointed state.
func (j *Joiner) Restore(data []byte) error {
	var st joinerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("etl: restore: %w", err)
	}
	j.featCursor = st.FeatCursor
	j.eventCursor = st.EventCursor
	j.seq = st.Seq
	j.pending = make(map[int64]*pendingEntry, len(st.Entries))
	j.order = j.order[:0]
	for _, e := range st.Entries {
		j.pending[e.ID] = &pendingEntry{feat: e.Feat, seq: e.Seq}
		j.order = append(j.order, orderEntry{id: e.ID, seq: e.Seq})
	}
	j.earlyEvents = make(map[int64]*earlyEvent, len(st.Events))
	j.eventOrder = j.eventOrder[:0]
	for _, e := range st.Events {
		j.earlyEvents[e.ID] = &earlyEvent{engaged: e.Engaged, seq: e.Seq}
		j.eventOrder = append(j.eventOrder, orderEntry{id: e.ID, seq: e.Seq})
	}
	return nil
}

// isMissingCategory reports whether err means the category has never been
// published to (no backing stream yet); the joiner treats that as an
// empty stream rather than a failure.
func isMissingCategory(err error) bool {
	return errors.Is(err, logdevice.ErrStreamNotFound)
}
