package etl

import (
	"fmt"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/metrics"
	"dsi/internal/schema"
	"dsi/internal/tectonic/faults"
	"dsi/internal/warehouse"
)

// partitionSink writes joined samples into one open partition, recording
// per-row event times into the partition's freshness bounds.
type partitionSink struct {
	pw   *warehouse.PartitionWriter
	rows int
}

func (s *partitionSink) EmitTimed(sample *schema.Sample, eventTime int64) error {
	if err := s.pw.WriteRow(sample); err != nil {
		return err
	}
	s.pw.NoteEventTime(eventTime)
	s.rows++
	return nil
}

// Pipeline is the continuously running ETL of §3.1.1: it tails a model's
// Scribe categories through a Joiner and rolls the joined samples into
// sealed warehouse partitions of roughly PartitionRows rows each,
// checkpointing its resume state through a CursorStore so a crashed
// pipeline restarts without re-emitting or losing a single sample.
//
// The pipeline ends when the producer closes both categories
// (scribe.Bus.CloseCategory): remaining pending joins are flushed as
// negatives into a final partition and the table's stream is closed,
// which is what lets an unbounded DPP session terminate.
type Pipeline struct {
	Joiner  *Joiner
	Table   *warehouse.Table
	Cursors *CursorStore

	// PartitionRows is the seal threshold: the open partition is sealed
	// once it holds at least this many rows. Default 4096.
	PartitionRows int
	// writeRetryBudget is how many times one partition may be aborted and
	// re-produced from its base checkpoint after a retryable write
	// failure before the pipeline gives up on it as poisoned. Default 2.
	writeRetryBudget int

	// PartitionsSealed counts partitions made visible.
	PartitionsSealed metrics.Counter
	// RowsWritten counts rows across all sealed partitions.
	RowsWritten metrics.Counter
	// PartitionsReproduced counts aborted partition attempts re-produced
	// byte-for-byte from the base checkpoint after a write failure.
	PartitionsReproduced metrics.Counter

	nextIndex int
	wstats    dwrf.WriteStats
}

// WriterStats reports the cumulative write-side recovery work (append
// retries, torn-ack dedups and repairs, virtual backoff) behind every
// partition attempt this pipeline has made, including aborted ones.
func (p *Pipeline) WriterStats() dwrf.WriteStats { return p.wstats }

func (p *Pipeline) defaults() {
	if p.writeRetryBudget <= 0 {
		p.writeRetryBudget = 2
	}
	if p.PartitionRows <= 0 {
		p.PartitionRows = 4096
	}
}

// stepBatch is the per-Step record budget.
const stepBatch = 1024

// keyPrefix names partitions "<prefix><index>".
const keyPrefix = "part-"

func (p *Pipeline) key(index int) string { return fmt.Sprintf("%s%06d", keyPrefix, index) }

// recover restores the joiner from the cursor log. It returns the index
// of the next partition to produce.
func (p *Pipeline) recover() (int, error) {
	committed, uncommitted, err := p.Cursors.Recover()
	if err != nil {
		return 0, err
	}
	adopt := committed
	for _, in := range uncommitted {
		// An uncommitted intent counts only if its partition was actually
		// sealed before the crash; then the crash fell between seal and
		// commit, and we adopt the state and re-commit.
		if _, err := p.Table.Partition(in.Key); err == nil {
			inCopy := in
			adopt = &inCopy
			if err := p.Cursors.Commit(in.Key); err != nil {
				return 0, err
			}
		}
	}
	index := 0
	if adopt != nil {
		if err := p.Joiner.Restore(adopt.State); err != nil {
			return 0, err
		}
		if _, err := fmt.Sscanf(adopt.Key, keyPrefix+"%d", &index); err != nil {
			return 0, fmt.Errorf("etl: cursor key %q does not match prefix %q", adopt.Key, keyPrefix)
		}
		index++
	}
	return index, nil
}

// sealPartition runs the intent → seal → commit protocol for the open
// partition.
func (p *Pipeline) sealPartition(key string, pw *warehouse.PartitionWriter, rows int) error {
	state, err := p.Joiner.Checkpoint()
	if err != nil {
		return err
	}
	if err := p.Cursors.Intent(key, state); err != nil {
		return err
	}
	if err := pw.Close(); err != nil {
		return err
	}
	if err := p.Cursors.Commit(key); err != nil {
		return err
	}
	p.PartitionsSealed.Inc()
	p.RowsWritten.Add(int64(rows))
	// Scribe records behind the checkpointed cursors are settled.
	return p.Joiner.TrimConsumed()
}

// Run tails the streams until the producer closes them, sealing
// partitions as the row threshold is crossed. A receive on stop aborts
// immediately without sealing the open partition — deliberately
// crash-shaped, so tests exercise the same recovery path a real crash
// would; rows buffered in the unsealed partition are never visible and
// are re-produced identically on the next Run.
func (p *Pipeline) Run(stop <-chan struct{}) error {
	p.defaults()
	index, err := p.recover()
	if err != nil {
		return err
	}
	p.nextIndex = index
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		final, err := p.producePartition(p.key(p.nextIndex), stop)
		if err != nil {
			return err
		}
		switch final {
		case fillAborted:
			return nil
		case fillEndOfStream:
			return p.Table.CloseStream()
		case fillSealed:
			p.nextIndex++
		}
	}
}

// producePartition rolls one partition with a bounded write-retry loop.
// The joiner is checkpointed before any row is written; a retryable
// failure anywhere before the partition became visible aborts the
// attempt, reclaims the orphan file, restores the joiner to the base
// checkpoint, and re-produces the partition byte-identically from the
// same Scribe records (untrimmed until commit). A failure after the
// partition is visible — the crash-shaped window between seal and
// commit — is returned as-is: retrying would double-produce, and the
// next Run's recovery adopts the intent instead. A partition still
// failing past the budget is poisoned and fails the pipeline.
func (p *Pipeline) producePartition(key string, stop <-chan struct{}) (fillResult, error) {
	base, err := p.Joiner.Checkpoint()
	if err != nil {
		return 0, err
	}
	var lastErr error
	for attempt := 0; attempt <= p.writeRetryBudget; attempt++ {
		if attempt > 0 {
			if err := p.Joiner.Restore(base); err != nil {
				return 0, err
			}
			p.PartitionsReproduced.Inc()
		}
		final, err := p.attemptPartition(key, stop)
		if err == nil {
			if final == fillEndOfStream {
				p.nextIndex++ // the final partition, when non-empty, was sealed too
			}
			return final, nil
		}
		if _, verr := p.Table.Partition(key); verr == nil {
			// Visible but the commit failed: crash-shaped by design.
			return 0, err
		}
		if !faults.IsRetryable(err) {
			return 0, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("etl: partition %s poisoned: still failing after %d re-produces: %w",
		key, p.writeRetryBudget, lastErr)
}

// attemptPartition runs one fill → intent → seal → commit attempt. On a
// write failure before visibility the orphan backing file is reclaimed
// immediately so the retry starts clean.
func (p *Pipeline) attemptPartition(key string, stop <-chan struct{}) (fillResult, error) {
	pw, err := p.Table.NewPartition(key)
	if err != nil {
		return 0, err
	}
	sink := &partitionSink{pw: pw}
	prevSink := p.Joiner.sink
	p.Joiner.sink = sink
	final, err := p.fillPartition(sink, stop)
	p.Joiner.sink = prevSink
	defer func() { p.wstats.Merge(pw.WriteStats()) }()
	if err != nil {
		// No row of this attempt was ever visible; reclaim the orphan.
		if aerr := pw.Abort(); aerr != nil {
			return 0, aerr
		}
		return 0, err
	}
	switch final {
	case fillAborted:
		// Deliberately crash-shaped: the unsealed partition's rows are
		// invisible and the orphan is reclaimed by the next Run's retry.
		return fillAborted, nil
	case fillEndOfStream:
		if sink.rows == 0 {
			if err := pw.Abort(); err != nil {
				return 0, err
			}
			return fillEndOfStream, nil
		}
	}
	if err := p.sealPartition(key, pw, sink.rows); err != nil {
		if _, verr := p.Table.Partition(key); verr != nil {
			// Not visible: reclaim so a re-produce starts clean.
			if aerr := pw.Abort(); aerr != nil {
				return 0, aerr
			}
		}
		return 0, err
	}
	return final, nil
}

type fillResult int

const (
	fillSealed fillResult = iota
	fillEndOfStream
	fillAborted
)

// categoryWait is how often an idle pipeline looks again for a category
// nothing has been published to yet: a stream that does not exist has no
// Changed channel to wait on.
const categoryWait = time.Millisecond

// fillPartition steps the joiner until the open partition reaches the
// seal threshold, the producer closes the stream, or stop fires. With
// both categories drained but open it waits for the next append or
// close, not for a timer.
func (p *Pipeline) fillPartition(sink *partitionSink, stop <-chan struct{}) (fillResult, error) {
	for sink.rows < p.PartitionRows {
		select {
		case <-stop:
			return fillAborted, nil
		default:
		}
		// Bound the step by the rows left before the seal threshold so a
		// deep backlog rolls into several partitions instead of one
		// oversized partition per drain.
		batch := min(stepBatch, p.PartitionRows-sink.rows)
		// Taken before the Step, so an append the Step just missed has
		// already closed its channel by the time the wait below looks.
		feat, event, ok := p.Joiner.InputChanged()
		n, err := p.Joiner.Step(batch)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			continue
		}
		if p.Joiner.EndOfStream() {
			// No more input can arrive: flush pending joins as negatives
			// into this final partition.
			if err := p.Joiner.Flush(); err != nil {
				return 0, err
			}
			return fillEndOfStream, nil
		}
		var retry <-chan time.Time
		if !ok {
			retry = time.After(categoryWait)
		}
		select {
		case <-stop:
			return fillAborted, nil
		case <-feat:
		case <-event:
		case <-retry:
		}
	}
	return fillSealed, nil
}
