// Package logdevice implements a reliable store for append-only,
// trimmable record streams, in the style of Meta's LogDevice (§3.1.1 of
// the paper). Each stream is a sequence of records addressed by a
// monotonically increasing log sequence number (LSN).
//
// Internally each stream uses an LSM-flavoured layout — an active memtable
// that seals into immutable segments — mirroring LogDevice's RocksDB
// backing without the on-disk machinery.
package logdevice

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dsi/internal/tectonic/faults"
)

// LSN is a log sequence number. LSNs start at 1 and increase by one per
// appended record.
type LSN uint64

// Record is one stored payload with its address.
type Record struct {
	LSN     LSN
	Payload []byte
}

// ErrStreamNotFound is returned for operations on unknown streams.
var ErrStreamNotFound = errors.New("logdevice: stream not found")

// ErrTrimmed is returned when reading below a stream's trim point.
var ErrTrimmed = errors.New("logdevice: range trimmed")

// ErrSealed is returned when appending to a sealed stream. Sealing a
// stream is LogDevice's end-of-log marker: readers that reach the tail of
// a sealed stream know the producer is done rather than merely idle.
var ErrSealed = errors.New("logdevice: stream sealed")

// segment is an immutable sorted run of records.
type segment struct {
	firstLSN LSN
	records  []Record
}

// stream is one append-only trimmable log.
type stream struct {
	mu        sync.Mutex
	nextLSN   LSN
	trimPoint LSN // all LSNs <= trimPoint are deleted
	memtable  []Record
	segments  []*segment
	memBytes  int64
	sealBytes int64
	sealed    bool          // no further appends; end-of-log for tailers
	changed   chan struct{} // closed and replaced on append/seal
	// unacked holds the tokens of appends that landed but lost their
	// acknowledgement: the producer will retry exactly these, so Trim
	// keeps their ledger entries until the retry has been answered — a
	// tailer that consumes and trims a torn record before its producer
	// retries must not turn the retry into a second append.
	unacked map[string]struct{}
	// tokens is the idempotent-append ledger, populated only while write
	// faults are active: write token -> the LSN it landed at. Entries
	// are dropped when their LSN is trimmed.
	tokens map[string]LSN
	// failSalt differentiates the seeded fault draws of successive
	// append attempts on this stream.
	failSalt int64
}

// notifyLocked wakes any waiter blocked on the stream's change channel.
// Callers must hold st.mu.
func (st *stream) notifyLocked() {
	if st.changed != nil {
		close(st.changed)
		st.changed = nil
	}
}

// Store is a collection of named streams.
type Store struct {
	mu      sync.Mutex
	streams map[string]*stream
	// memtableFlushBytes is the memtable size that triggers sealing into
	// a segment.
	memtableFlushBytes int64

	// fmu guards the write-fault plane: the installed schedule and the
	// recovery counters.
	fmu    sync.Mutex
	sched  *faults.Schedule
	wstats WriteFaultCounters
}

// NewStore returns an empty store with a 1 MiB memtable flush threshold.
func NewStore() *Store {
	return &Store{streams: make(map[string]*stream), memtableFlushBytes: 1 << 20}
}

// CreateStream creates an empty stream. Creating an existing stream is an
// error.
func (s *Store) CreateStream(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.streams[name]; ok {
		return fmt.Errorf("logdevice: stream %q already exists", name)
	}
	s.streams[name] = &stream{nextLSN: 1}
	return nil
}

func (s *Store) lookup(name string) (*stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamNotFound, name)
	}
	return st, nil
}

// Append appends payload to the stream and returns its LSN. The payload
// is copied. Equivalent to AppendToken with an empty token: under an
// installed fault schedule a failed or torn append cannot be safely
// retried without one.
func (s *Store) Append(name string, payload []byte) (LSN, error) {
	lsn, _, err := s.AppendToken(name, "", payload)
	return lsn, err
}

// AppendToken appends payload idempotently under the given write token
// and returns the record's LSN plus whether the append deduplicated
// against an earlier attempt that already landed. While a write-fault
// schedule is installed, appends can fail cleanly (WriteFailing, Down)
// or land and then lose their acknowledgement (WriteTorn → ErrTornAck);
// a retry with the same token returns the landed record's LSN instead
// of appending twice. Tokens must be unique per logical record; the
// ledger entry is dropped when the record is trimmed, or, for a record
// whose ack was lost, when its retry has been answered. With no schedule
// installed this is exactly the legacy append — one branch, no ledger.
func (s *Store) AppendToken(name, token string, payload []byte) (LSN, bool, error) {
	st, err := s.lookup(name)
	if err != nil {
		return 0, false, err
	}
	sched := s.faultSchedule()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sealed {
		return 0, false, fmt.Errorf("%w: %s", ErrSealed, name)
	}
	torn := false
	if sched != nil {
		if token != "" {
			if lsn, ok := st.tokens[token]; ok {
				// The retry is answered; an entry kept past its record's
				// trim only for this leaves with it.
				delete(st.unacked, token)
				if lsn <= st.trimPoint {
					delete(st.tokens, token)
				}
				s.fmu.Lock()
				s.wstats.DedupHits++
				s.fmu.Unlock()
				return lsn, true, nil
			}
		}
		st.failSalt++
		switch nodeState, win := sched.WriteState(0, 0); nodeState {
		case faults.Down:
			s.fmu.Lock()
			s.wstats.Failures++
			s.fmu.Unlock()
			return 0, false, fmt.Errorf("%w: logdevice stream %s", faults.ErrNodeDown, name)
		case faults.WriteFailing:
			if sched.Fires(win.ErrProb, 0, name, int64(st.nextLSN), int(st.failSalt)) {
				s.fmu.Lock()
				s.wstats.Failures++
				s.fmu.Unlock()
				return 0, false, fmt.Errorf("%w: logdevice stream %s append (lsn %d)", faults.ErrNodeIO, name, st.nextLSN)
			}
		case faults.WriteTorn:
			torn = sched.Fires(win.ErrProb, 0, name, int64(st.nextLSN), int(st.failSalt))
		}
	}
	lsn := st.nextLSN
	st.nextLSN++
	cp := make([]byte, len(payload))
	copy(cp, payload)
	st.memtable = append(st.memtable, Record{LSN: lsn, Payload: cp})
	st.memBytes += int64(len(cp))
	if sched != nil && token != "" {
		if st.tokens == nil {
			st.tokens = make(map[string]LSN)
		}
		st.tokens[token] = lsn
	}
	if st.memBytes >= s.memtableFlushBytes {
		st.sealLocked()
	}
	st.notifyLocked()
	if torn {
		// The record IS durable (tailers will see it); only the ack is
		// lost. A tokened retry dedups; a tokenless caller would
		// double-append.
		if token != "" {
			if st.unacked == nil {
				st.unacked = make(map[string]struct{})
			}
			st.unacked[token] = struct{}{}
		}
		s.fmu.Lock()
		s.wstats.TornAcks++
		s.fmu.Unlock()
		return lsn, false, fmt.Errorf("%w: logdevice stream %s (lsn %d)", faults.ErrTornAck, name, lsn)
	}
	return lsn, false, nil
}

// Seal marks the stream as ended: further Appends fail with ErrSealed,
// and tailers that drained to the tail can treat the stream as complete
// rather than idle. Sealing is idempotent; reads and trims still work.
func (s *Store) Seal(name string) error {
	st, err := s.lookup(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.sealed {
		st.sealed = true
		st.notifyLocked()
	}
	return nil
}

// IsSealed reports whether the stream has been sealed by its producer.
func (s *Store) IsSealed(name string) (bool, error) {
	st, err := s.lookup(name)
	if err != nil {
		return false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sealed, nil
}

// Changed returns a channel that is closed the next time the stream
// changes (a record is appended or the stream is sealed). Tailing
// consumers use it to idle between polls without busy-waiting; after the
// channel fires they must re-read and obtain a fresh channel.
func (s *Store) Changed(name string) (<-chan struct{}, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.changed == nil {
		st.changed = make(chan struct{})
	}
	return st.changed, nil
}

// sealLocked moves the memtable into an immutable segment. Callers must
// hold st.mu.
func (st *stream) sealLocked() {
	if len(st.memtable) == 0 {
		return
	}
	seg := &segment{firstLSN: st.memtable[0].LSN, records: st.memtable}
	st.segments = append(st.segments, seg)
	st.sealBytes += st.memBytes
	st.memtable = nil
	st.memBytes = 0
}

// Trim deletes all records with LSN <= upTo. Trimming is how the paper's
// streams stay bounded while being continuously appended.
func (s *Store) Trim(name string, upTo LSN) error {
	st, err := s.lookup(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if upTo <= st.trimPoint {
		return nil
	}
	st.trimPoint = upTo
	// Drop fully trimmed segments; partially trimmed segments narrow.
	var kept []*segment
	for _, seg := range st.segments {
		last := seg.records[len(seg.records)-1].LSN
		switch {
		case last <= upTo:
			for _, r := range seg.records {
				st.sealBytes -= int64(len(r.Payload))
			}
		case seg.firstLSN > upTo:
			kept = append(kept, seg)
		default:
			idx := sort.Search(len(seg.records), func(i int) bool { return seg.records[i].LSN > upTo })
			for _, r := range seg.records[:idx] {
				st.sealBytes -= int64(len(r.Payload))
			}
			kept = append(kept, &segment{firstLSN: seg.records[idx].LSN, records: seg.records[idx:]})
		}
	}
	st.segments = kept
	// Trim the memtable too.
	idx := sort.Search(len(st.memtable), func(i int) bool { return st.memtable[i].LSN > upTo })
	for _, r := range st.memtable[:idx] {
		st.memBytes -= int64(len(r.Payload))
	}
	st.memtable = st.memtable[idx:]
	// An acknowledged record is never retried, so its write token leaves
	// the ledger with it; a record whose ack was lost keeps its token
	// until the retry arrives (unacked). The ledger stays bounded by the
	// stream's retained span plus the retries still owed.
	for tok, lsn := range st.tokens {
		if _, owed := st.unacked[tok]; lsn <= upTo && !owed {
			delete(st.tokens, tok)
		}
	}
	return nil
}

// ReadFrom returns up to max records starting at LSN from (inclusive).
// Reading below the trim point returns ErrTrimmed.
func (s *Store) ReadFrom(name string, from LSN, max int) ([]Record, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if from <= st.trimPoint {
		return nil, fmt.Errorf("%w: lsn %d <= trim point %d", ErrTrimmed, from, st.trimPoint)
	}
	var out []Record
	appendRun := func(records []Record) {
		if len(out) >= max {
			return
		}
		idx := sort.Search(len(records), func(i int) bool { return records[i].LSN >= from })
		for _, r := range records[idx:] {
			if len(out) >= max {
				return
			}
			out = append(out, r)
		}
	}
	for _, seg := range st.segments {
		appendRun(seg.records)
	}
	appendRun(st.memtable)
	return out, nil
}

// Tail reports the next LSN that will be assigned (i.e. one past the last
// record).
func (s *Store) Tail(name string) (LSN, error) {
	st, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextLSN, nil
}

// TrimPoint reports the stream's current trim point.
func (s *Store) TrimPoint(name string) (LSN, error) {
	st, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.trimPoint, nil
}

// StoredBytes reports the payload bytes currently retained in the stream.
func (s *Store) StoredBytes(name string) (int64, error) {
	st, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.memBytes + st.sealBytes, nil
}
