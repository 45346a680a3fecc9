package datagen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dsi/internal/schema"
	"dsi/internal/scribe"
)

// Log-record wire layout. Feature and event logs travel through Scribe
// and LogDevice as flat little-endian records, written in one append
// pass into an exactly sized buffer and decoded with every count checked
// against the bytes that remain (the tensor/wire.go idiom), so bytes
// read back off LogDevice can neither panic the ETL joiner nor make it
// allocate more than a small multiple of the record's own length.
//
// Feature log (tag 'F'):
//
//	u8   tag = 'F'
//	i64  RequestID
//	i64  EventTime (Unix nanoseconds, 0 = unknown)
//	u32  nDense
//	u32  nSparse
//	u32  nValues — sum of the sparse list lengths
//	nDense times, ascending feature ID:
//	  i32  feature ID
//	  f32  value
//	nSparse times, ascending feature ID:
//	  i32  feature ID
//	  u32  n
//	  i64  × n values
//
// Event log (tag 'E'):
//
//	u8   tag = 'E'
//	i64  RequestID
//	u8   Engaged — 0 or 1
//
// Features are written in ascending ID order, so one record value always
// encodes to the same bytes. A record decodes only if its length is
// exactly what its counts imply, its IDs are strictly ascending within a
// section (the encoder's order; it also rules out duplicate map keys)
// and its list lengths sum to nValues.

const (
	tagFeatureLog = 'F'
	tagEventLog   = 'E'

	featureLogHeaderLen = 1 + 8 + 8 + 4 + 4 + 4
	eventLogLen         = 1 + 8 + 1
)

var errLogTruncated = errors.New("record truncated")

// FeatureLog is the serving-time record of the features a model was
// evaluated with (§3.1): logged at serving time to avoid data leakage
// between serving and training.
type FeatureLog struct {
	RequestID int64
	Dense     map[schema.FeatureID]float32
	Sparse    map[schema.FeatureID][]int64
	// EventTime is the serving-time wall clock in Unix nanoseconds. It is
	// carried through the ETL join into partition metadata so the DPP
	// master can account event-time→trainer freshness lag. Zero means
	// unknown.
	EventTime int64
}

// EventLog is the record of the recommendation's observed outcome (e.g.
// whether the user interacted with the item).
type EventLog struct {
	RequestID int64
	Engaged   bool
}

// EncodeFeatureLog serializes a feature log (layout above).
func EncodeFeatureLog(f *FeatureLog) ([]byte, error) {
	nValues := 0
	for _, vals := range f.Sparse {
		nValues += len(vals)
	}
	if nValues > math.MaxUint32 {
		return nil, fmt.Errorf("datagen: encode feature log: %d sparse values exceed the format's u32 count", nValues)
	}
	dst := make([]byte, 0, featureLogHeaderLen+8*len(f.Dense)+8*len(f.Sparse)+8*nValues)
	dst = append(dst, tagFeatureLog)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.RequestID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.EventTime))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Dense)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Sparse)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nValues))

	// The scratch array keeps a typical record's ID sort off the heap.
	var scratch [128]schema.FeatureID
	ids := scratch[:0]
	for id := range f.Dense {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f.Dense[id]))
	}

	ids = ids[:0]
	for id := range f.Sparse {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		vals := f.Sparse[id]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	return dst, nil
}

// DecodeFeatureLog parses a feature log record, rejecting anything that
// is not exactly one well-formed record. All sparse lists share one
// backing array, each capped to its own length.
func DecodeFeatureLog(data []byte) (*FeatureLog, error) {
	fail := func(err error) (*FeatureLog, error) {
		return nil, fmt.Errorf("datagen: decode feature log: %w", err)
	}
	if len(data) < featureLogHeaderLen {
		return fail(errLogTruncated)
	}
	if data[0] != tagFeatureLog {
		return fail(fmt.Errorf("bad tag %#x", data[0]))
	}
	le := binary.LittleEndian
	f := &FeatureLog{RequestID: int64(le.Uint64(data[1:])), EventTime: int64(le.Uint64(data[9:]))}
	nDense, nSparse, nValues := uint64(le.Uint32(data[17:])), uint64(le.Uint32(data[21:])), uint64(le.Uint32(data[25:]))
	// The counts fix the record's length exactly; checking it here bounds
	// every allocation below by the bytes actually present.
	if want := featureLogHeaderLen + 8*nDense + 8*nSparse + 8*nValues; uint64(len(data)) != want {
		if uint64(len(data)) < want {
			return fail(errLogTruncated)
		}
		return fail(fmt.Errorf("%d trailing bytes", uint64(len(data))-want))
	}
	pos := featureLogHeaderLen

	f.Dense = make(map[schema.FeatureID]float32, nDense)
	for i, prev := uint64(0), schema.FeatureID(0); i < nDense; i++ {
		id := schema.FeatureID(le.Uint32(data[pos:]))
		if i > 0 && id <= prev {
			return fail(fmt.Errorf("dense feature %d out of order", id))
		}
		f.Dense[id] = math.Float32frombits(le.Uint32(data[pos+4:]))
		prev = id
		pos += 8
	}

	f.Sparse = make(map[schema.FeatureID][]int64, nSparse)
	values := make([]int64, nValues)
	used := 0
	for i, prev := uint64(0), schema.FeatureID(0); i < nSparse; i++ {
		id := schema.FeatureID(le.Uint32(data[pos:]))
		claimed := le.Uint32(data[pos+4:])
		pos += 8
		if i > 0 && id <= prev {
			return fail(fmt.Errorf("sparse feature %d out of order", id))
		}
		if uint64(claimed) > uint64(len(values)-used) {
			return fail(fmt.Errorf("sparse feature %d claims %d values, %d remain", id, claimed, len(values)-used))
		}
		n := int(claimed)
		list := values[used : used+n : used+n]
		for k := range list {
			list[k] = int64(le.Uint64(data[pos:]))
			pos += 8
		}
		f.Sparse[id] = list
		used += n
		prev = id
	}
	if used != len(values) {
		return fail(fmt.Errorf("sparse lists hold %d values, header says %d", used, len(values)))
	}
	return f, nil
}

// EncodeEventLog serializes an event log (layout above).
func EncodeEventLog(e *EventLog) ([]byte, error) {
	dst := make([]byte, eventLogLen)
	dst[0] = tagEventLog
	binary.LittleEndian.PutUint64(dst[1:], uint64(e.RequestID))
	if e.Engaged {
		dst[9] = 1
	}
	return dst, nil
}

// DecodeEventLog parses an event log record, rejecting anything that is
// not exactly one well-formed record.
func DecodeEventLog(data []byte) (*EventLog, error) {
	fail := func(err error) (*EventLog, error) {
		return nil, fmt.Errorf("datagen: decode event log: %w", err)
	}
	if len(data) < eventLogLen {
		return fail(errLogTruncated)
	}
	if data[0] != tagEventLog {
		return fail(fmt.Errorf("bad tag %#x", data[0]))
	}
	if len(data) > eventLogLen {
		return fail(fmt.Errorf("%d trailing bytes", len(data)-eventLogLen))
	}
	if data[9] > 1 {
		return fail(fmt.Errorf("bad engaged byte %#x", data[9]))
	}
	return &EventLog{RequestID: int64(binary.LittleEndian.Uint64(data[1:])), Engaged: data[9] == 1}, nil
}

// FeatureCategory names the Scribe category carrying a model's feature
// logs.
func FeatureCategory(model string) string { return model + "/features" }

// EventCategory names the Scribe category carrying a model's event logs.
func EventCategory(model string) string { return model + "/events" }

// ServingSimulator emits paired feature and event logs through a Scribe
// daemon, standing in for the model-serving fleet.
type ServingSimulator struct {
	Model  string
	gen    *Generator
	daemon *scribe.Daemon
	nextID int64
	// EventDropRate is the fraction of requests whose outcome event is
	// never observed (the join in ETL must tolerate these).
	EventDropRate float64
	// Now, when set, stamps each feature log's EventTime (Unix
	// nanoseconds). Tests inject a virtual clock here.
	Now func() int64
}

// NewServingSimulator returns a simulator that logs through daemon.
func NewServingSimulator(model string, gen *Generator, daemon *scribe.Daemon) *ServingSimulator {
	return &ServingSimulator{Model: model, gen: gen, daemon: daemon, nextID: 1}
}

// ServeRequests simulates n recommendation requests, logging a feature
// record for each and an event record for the non-dropped ones.
func (s *ServingSimulator) ServeRequests(n int) error {
	for i := 0; i < n; i++ {
		id := s.nextID
		s.nextID++
		sample := s.gen.Sample()
		fl := &FeatureLog{
			RequestID: id,
			Dense:     sample.DenseFeatures,
			Sparse:    sample.SparseFeatures,
		}
		if s.Now != nil {
			fl.EventTime = s.Now()
		}
		payload, err := EncodeFeatureLog(fl)
		if err != nil {
			return err
		}
		if err := s.daemon.Log(FeatureCategory(s.Model), payload); err != nil {
			return err
		}
		// Guard the drop draw so a zero drop rate consumes no rng state:
		// tests replay the generator with the same seed to rebuild ground
		// truth, which requires identical draw sequences.
		if s.EventDropRate > 0 && s.gen.rng.Float64() < s.EventDropRate {
			continue
		}
		ev := &EventLog{RequestID: id, Engaged: sample.Label > 0}
		evPayload, err := EncodeEventLog(ev)
		if err != nil {
			return err
		}
		if err := s.daemon.Log(EventCategory(s.Model), evPayload); err != nil {
			return err
		}
	}
	// A retryable flush failure (a LogDevice brown-out, an open circuit
	// breaker) is absorbed: the messages stay buffered in the daemon and
	// a later flush — or Close's drain — delivers them. Serving must not
	// fail because logging hiccuped.
	if err := s.daemon.Flush(); err != nil && !scribe.Retryable(err) {
		return err
	}
	return nil
}

// RequestsServed reports how many requests have been simulated.
func (s *ServingSimulator) RequestsServed() int64 { return s.nextID - 1 }

// Close flushes the daemon and closes both of the model's categories on
// bus, signalling end-of-stream to downstream ETL: a tailing joiner that
// drains to both tails may then finalize instead of waiting for more.
func (s *ServingSimulator) Close(bus *scribe.Bus) error {
	if err := s.daemon.DrainFlush(30 * time.Second); err != nil {
		return err
	}
	if err := bus.CloseCategory(FeatureCategory(s.Model)); err != nil {
		return err
	}
	return bus.CloseCategory(EventCategory(s.Model))
}
