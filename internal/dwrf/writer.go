package dwrf

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// WriterOptions configures file layout.
type WriterOptions struct {
	// Flatten enables feature flattening (FF): one stream per feature ID
	// instead of whole-row streams.
	Flatten bool
	// RowsPerStripe sets the stripe size in rows. The paper's "large
	// stripes" (LS) optimization raises this so each feature stream —
	// and hence each read I/O — grows. Defaults to 512.
	RowsPerStripe int
	// StreamOrder, when non-nil, ranks feature IDs by popularity; the
	// writer lays streams out in this order within each stripe (feature
	// reordering, FR). Features absent from the ranking sort after ranked
	// ones, by ID. When nil, streams are laid out in a hash-scrambled
	// order, mirroring the effectively random order the paper describes
	// for un-reordered data generation.
	StreamOrder []schema.FeatureID
	// PlainEncodings forces EncPlain for every stream, producing stream
	// payloads byte-identical to format v1 (same compressed bytes, same
	// StripeMeta.ContentHash). Benchmarks use it to compare encodings on
	// identical data; the default lets the writer pick per stream.
	PlainEncodings bool
}

func (o *WriterOptions) fill() {
	if o.RowsPerStripe == 0 {
		o.RowsPerStripe = 512
	}
}

// WriteStats aggregates the write-side recovery work a writer's appends
// performed — the cluster's own accounting of each tokened append,
// summed. Beyond Attempts, all zero on a fault-free cluster.
type WriteStats = tectonic.WriteTrace

// Writer encodes samples into a DWRF file inside a Tectonic cluster.
type Writer struct {
	cluster *tectonic.Cluster
	path    string
	schema  *schema.TableSchema
	opts    WriterOptions

	pending []*schema.Sample
	offset  int64
	footer  FileFooter
	closed  bool
	stats   WriteStats

	// Stripe-flush scratch, all reused from stripe to stripe. rank is
	// opts.StreamOrder inverted once; token is "path@" followed by the
	// current append's offset.
	rank    map[schema.FeatureID]int
	present map[schema.FeatureID]struct{}
	ids     []schema.FeatureID
	jobs    []streamJob
	token   []byte
}

// append routes one physical append through the cluster's idempotent
// tokened write path. The token "path@offset" is unique per logical
// append of this file's life, so a retry after a torn ack resumes or
// dedups instead of corrupting the layout with duplicate bytes.
func (w *Writer) append(data []byte) error {
	w.token = strconv.AppendInt(w.token[:len(w.path)+1], w.offset, 10)
	trace, err := w.cluster.AppendToken(w.path, string(w.token), data)
	w.stats.Merge(trace)
	return err
}

// WriteStats reports the cumulative recovery work behind this writer's
// appends so far.
func (w *Writer) WriteStats() WriteStats { return w.stats }

// NewWriter creates the backing file and returns a writer. The file is
// created immediately; Close must be called to persist the footer.
func NewWriter(cluster *tectonic.Cluster, path string, ts *schema.TableSchema, opts WriterOptions) (*Writer, error) {
	opts.fill()
	if err := cluster.Create(path); err != nil {
		return nil, err
	}
	w := &Writer{
		cluster: cluster,
		path:    path,
		schema:  ts,
		opts:    opts,
		footer: FileFooter{
			Flattened: opts.Flatten,
			Columns:   append([]schema.Column(nil), ts.Columns...),
			Version:   Version,
		},
		present: make(map[schema.FeatureID]struct{}),
		token:   append([]byte(path), '@'),
	}
	if opts.StreamOrder != nil {
		w.rank = make(map[schema.FeatureID]int, len(opts.StreamOrder))
		for i, id := range opts.StreamOrder {
			w.rank[id] = i
		}
	}
	header := append([]byte(Magic), 0, 0, 0, Version)
	if err := w.append(header); err != nil {
		return nil, err
	}
	w.offset = int64(len(header))
	return w, nil
}

// WriteRow buffers one sample, flushing a stripe when full.
func (w *Writer) WriteRow(s *schema.Sample) error {
	if w.closed {
		return fmt.Errorf("dwrf: write to closed writer for %s", w.path)
	}
	w.pending = append(w.pending, s)
	w.footer.Rows++
	if len(w.pending) >= w.opts.RowsPerStripe {
		return w.flushStripe()
	}
	return nil
}

// streamLayout returns the feature IDs present in the stripe in their
// on-disk order. The result aliases w.ids and is valid until the next
// call.
func (w *Writer) streamLayout(rows []*schema.Sample) []schema.FeatureID {
	clear(w.present)
	for _, r := range rows {
		for id := range r.DenseFeatures {
			w.present[id] = struct{}{}
		}
		for id := range r.SparseFeatures {
			w.present[id] = struct{}{}
		}
		for id := range r.ScoreListFeatures {
			w.present[id] = struct{}{}
		}
	}
	ids := w.ids[:0]
	for id := range w.present {
		ids = append(ids, id)
	}
	w.ids = ids

	if w.rank != nil {
		slices.SortFunc(ids, func(a, b schema.FeatureID) int {
			ra, aok := w.rank[a]
			rb, bok := w.rank[b]
			switch {
			case aok && bok:
				return cmp.Compare(ra, rb)
			case aok:
				return -1
			case bok:
				return 1
			default:
				return cmp.Compare(a, b)
			}
		})
		return ids
	}

	// Hash-scrambled order: deterministic but uncorrelated with feature
	// popularity, standing in for the random stream order of the paper's
	// unoptimized data generation path.
	slices.SortFunc(ids, func(a, b schema.FeatureID) int {
		return cmp.Compare(scramble(a), scramble(b))
	})
	return ids
}

// scramble is a cheap integer hash (xorshift-multiply).
func scramble(id schema.FeatureID) uint32 {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// streamJob is one stream of the stripe being flushed. planStripe names
// it (meta.Kind, meta.Feature); the flush worker that runs it fills in
// the encoding, the raw length and comp, the compressed bytes (a slice
// of that worker's encoder output); the ordered pass adds the offsets.
type streamJob struct {
	meta StreamMeta
	comp []byte
}

// encodeJob encodes and compresses one stream on encoder e.
func (w *Writer) encodeJob(e *stripeEncoder, rows []*schema.Sample, j *streamJob) {
	var payload []byte
	m := &j.meta
	plain := w.opts.PlainEncodings
	switch m.Kind {
	case streamRowData:
		payload = e.encodeRowData(rows)
	case streamLabel:
		payload = e.encodeLabels(rows)
	case streamDense:
		payload, m.Encoding = e.encodeDense(rows, m.Feature, plain)
	case streamSparse:
		payload, m.Encoding = e.encodeSparse(rows, m.Feature, plain)
	case streamScoreList:
		payload = e.encodeScoreList(rows, m.Feature)
	}
	m.RawLength = int64(len(payload))
	j.comp = e.compress(payload)
}

// planStripe lists the stripe's streams in layout order into w.jobs.
func (w *Writer) planStripe(rows []*schema.Sample) error {
	w.jobs = w.jobs[:0]
	if !w.opts.Flatten {
		w.jobs = append(w.jobs, streamJob{meta: StreamMeta{Kind: streamRowData}})
		return nil
	}
	w.jobs = append(w.jobs, streamJob{meta: StreamMeta{Kind: streamLabel}})
	for _, id := range w.streamLayout(rows) {
		col, ok := w.schema.Column(id)
		if !ok {
			return fmt.Errorf("dwrf: sample has feature %d absent from schema %s", id, w.schema.Name)
		}
		var kind streamKind
		switch col.Kind {
		case schema.Dense:
			kind = streamDense
		case schema.Sparse:
			kind = streamSparse
		case schema.ScoreList:
			kind = streamScoreList
		default:
			return fmt.Errorf("dwrf: unknown feature kind %v", col.Kind)
		}
		w.jobs = append(w.jobs, streamJob{meta: StreamMeta{Kind: kind, Feature: id}})
	}
	return nil
}

// flushStripe encodes and persists the pending rows as one stripe.
//
// Encoding and compression — nearly all of the cost — run on
// min(GOMAXPROCS, streams) workers, each with a stripeEncoder of its own
// off the package's free list, pulling streams off a shared counter. A
// stream's compressed bytes depend only on the rows, so which worker ran
// it does not show in the file. Everything that depends on file position
// then happens on the calling goroutine, strictly in layout order: fold
// the content hash, encrypt (the IV is the file offset), append. The
// encoders go back to the free list only after that pass: the compressed
// bytes it appends live in their output buffers.
func (w *Writer) flushStripe() error {
	rows := w.pending
	w.pending = nil
	if len(rows) == 0 {
		return nil
	}
	if err := w.planStripe(rows); err != nil {
		return err
	}
	jobs := w.jobs

	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	encs := make([]*stripeEncoder, workers)
	for k := range encs {
		e, ok := stripeEncoders.Get()
		if !ok {
			e = new(stripeEncoder)
		}
		e.out = e.out[:0]
		encs[k] = e
	}
	defer func() {
		for _, e := range encs {
			stripeEncoders.Put(e)
		}
	}()
	var next atomic.Int64
	run := func(k int) {
		e := encs[k]
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			w.encodeJob(e, rows, &jobs[i])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()

	meta := StripeMeta{Offset: w.offset, Rows: len(rows), Streams: make([]StreamMeta, 0, len(jobs))}
	for i := range jobs {
		j := &jobs[i]
		// Fold the compressed (pre-encryption) bytes into the stripe's
		// content hash: encryption IVs depend on file offsets, so hashing
		// before the crypt pass keeps the digest a pure function of content.
		meta.ContentHash = fnvMix(meta.ContentHash, j.comp)
		if err := cryptStream(j.comp, w.offset); err != nil {
			return err
		}
		if err := w.append(j.comp); err != nil {
			return err
		}
		j.meta.Offset, j.meta.Length = w.offset, int64(len(j.comp))
		meta.Streams = append(meta.Streams, j.meta)
		w.offset += j.meta.Length
	}
	meta.Length = w.offset - meta.Offset
	w.footer.Stripes = append(w.footer.Stripes, meta)
	clear(rows) // drop the sample references, keep the capacity
	w.pending = rows[:0]
	return nil
}

// Close flushes the final stripe, writes the footer, and seals the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flushStripe(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w.footer); err != nil {
		return fmt.Errorf("dwrf: encode footer: %w", err)
	}
	footerLen := make([]byte, 8)
	binary.LittleEndian.PutUint64(footerLen, uint64(buf.Len()))
	tail := append(buf.Bytes(), footerLen...)
	tail = append(tail, []byte(Magic)...)
	if err := w.append(tail); err != nil {
		return err
	}
	if err := w.cluster.Seal(w.path); err != nil {
		return err
	}
	w.closed = true
	return nil
}
