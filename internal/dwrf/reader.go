package dwrf

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"dsi/internal/freelist"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// ReadOptions configures the read path.
type ReadOptions struct {
	// CoalesceBytes enables coalesced reads (CR): adjacent selected
	// streams separated by at most this many unwanted bytes are fetched
	// in one I/O, trading over-read for fewer seeks. The paper uses
	// 1.25 MiB. Zero disables coalescing (one I/O per stream).
	CoalesceBytes int64
	// Flatmap selects nothing: every stripe read decodes into the
	// columnar in-memory Batch, and no reader consults this field. The
	// paper's FM step (Table 12) is priced by the experiments' cost
	// model (experiments.CostParams.Flatmap), not chosen here. The field
	// remains because the frozen benchmark (bench/env.go, bench/ingest.go)
	// sets it, and goes when the benchmark next changes.
	Flatmap bool
}

// DefaultCoalesceBytes is the paper's coalesced-read window (§7.5).
const DefaultCoalesceBytes = 1310720 // 1.25 MiB

// ReadStats accounts the storage and decode work of a read, feeding the
// Table 6 / Table 12 measurements.
type ReadStats struct {
	IOs            int
	BytesRead      int64 // bytes fetched from storage
	BytesWanted    int64 // bytes belonging to selected streams
	BytesOverRead  int64 // fetched but not selected
	BytesDecoded   int64 // raw payload bytes decoded (post-decompress)
	StreamsDecoded int
	// FetchWall and DecodeWall split the real (wall-clock) time of the
	// read between waiting on storage and decrypt/decompress/decode work,
	// feeding the worker pipeline's per-stage busy breakdown.
	FetchWall  time.Duration
	DecodeWall time.Duration

	// Recovery is the self-healing work behind the read; it rides
	// ResourceReport and WorkerStats into fleet heartbeats.
	Recovery
}

// Recovery counts the self-healing work of the storage read path:
// replica retries and failovers and hedged reads fired and won (from
// tectonic's ReadTrace), plus corruption handling — stripe fetches that
// failed content verification and replicas newly quarantined because a
// footer or stripe they served did. It is the one declaration of these
// counters; dwrf.ReadStats, dpp.ResourceReport and dpp.WorkerStats embed
// it.
type Recovery struct {
	StorageRetries   int64
	StorageFailovers int64
	HedgedReads      int64
	HedgeWins        int64
	CorruptStripes   int64
	Quarantines      int64
}

// Add accumulates o into r.
func (r *Recovery) Add(o Recovery) {
	r.StorageRetries += o.StorageRetries
	r.StorageFailovers += o.StorageFailovers
	r.HedgedReads += o.HedgedReads
	r.HedgeWins += o.HedgeWins
	r.CorruptStripes += o.CorruptStripes
	r.Quarantines += o.Quarantines
}

// trace folds the recovery work of one cluster read into r.
func (r *Recovery) trace(tr tectonic.ReadTrace) {
	r.StorageRetries += tr.Retries
	r.StorageFailovers += tr.Failovers
	r.HedgedReads += tr.Hedges
	r.HedgeWins += tr.HedgeWins
}

// Merge accumulates other into s; callers aggregating per-stripe stats
// across a scan use it.
func (s *ReadStats) Merge(other ReadStats) { s.add(other) }

// add merges other into s.
func (s *ReadStats) add(other ReadStats) {
	s.IOs += other.IOs
	s.BytesRead += other.BytesRead
	s.BytesWanted += other.BytesWanted
	s.BytesOverRead += other.BytesOverRead
	s.BytesDecoded += other.BytesDecoded
	s.StreamsDecoded += other.StreamsDecoded
	s.FetchWall += other.FetchWall
	s.DecodeWall += other.DecodeWall
	s.Recovery.Add(other.Recovery)
}

// Batch is the in-memory flatmap representation (FM): per-feature
// columnar arrays over a stripe's rows, matching both the on-disk DWRF
// layout and the downstream tensor layout so extraction avoids
// row-oriented map materialization (§7.5).
type Batch struct {
	Rows   int
	Labels []float32
	// Dense maps feature ID -> (present bitmap, values). Values align
	// with row indices; Missing rows hold 0 with Present=false.
	Dense map[schema.FeatureID]*DenseColumn
	// Sparse maps feature ID -> ragged values.
	Sparse map[schema.FeatureID]*SparseColumn
	// ScoreList maps feature ID -> ragged scored values.
	ScoreList map[schema.FeatureID]*ScoreListColumn

	// arena, when non-nil, is where the batch's header, its labels and
	// every column it drops the last reference to go back (see Arena).
	// Unexported so struct literals and gob leave it nil, and what such a
	// batch releases goes to the collector.
	arena *Arena
}

// DenseColumn is one dense feature across a batch's rows.
type DenseColumn struct {
	Present []bool
	Values  []float32
	owners
}

// SparseColumn is one sparse feature across a batch's rows.
type SparseColumn struct {
	// Offsets has Rows+1 entries; row i's values are
	// Values[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	Values  []int64
	// Dict, when non-empty, marks the dictionary-indexed representation:
	// Values holds indices into Dict (every index < len(Dict)) and Dict
	// holds the column's sorted distinct values. Dictionary-encoded
	// streams decode into this form so downstream kernels can transform
	// each DISTINCT value once per stripe; kernels that need raw values
	// materialize via MaterializedValues. An empty Dict means Values are
	// the feature values themselves (the plain representation).
	Dict []int64
	owners
}

// IsDict reports whether the column is dictionary-indexed.
func (c *SparseColumn) IsDict() bool { return len(c.Dict) > 0 }

// RowValues returns row i's stored values (possibly empty). For a
// dictionary-indexed column these are dictionary INDICES, not feature
// values — length-only consumers may use them directly; value consumers
// go through MaterializedValues.
func (c *SparseColumn) RowValues(i int) []int64 {
	return c.Values[c.Offsets[i]:c.Offsets[i+1]]
}

// MaterializedValues returns the column's decoded feature values,
// aligned with Offsets: Values itself for a plain column (no copy), or
// dst — grown as needed — filled through the dictionary. Callers that
// materialize repeatedly pass the previous return as dst to recycle it.
func (c *SparseColumn) MaterializedValues(dst []int64) []int64 {
	if len(c.Dict) == 0 {
		return c.Values
	}
	if cap(dst) < len(c.Values) {
		dst = make([]int64, len(c.Values))
	}
	dst = dst[:len(c.Values)]
	for i, idx := range c.Values {
		dst[i] = c.Dict[idx]
	}
	return dst
}

// ScoreListColumn is one score-list feature across a batch's rows.
type ScoreListColumn struct {
	Offsets []int32
	Values  []schema.ScoredValue
	owners
}

// RowValues returns row i's scored values (possibly empty).
func (c *ScoreListColumn) RowValues(i int) []schema.ScoredValue {
	return c.Values[c.Offsets[i]:c.Offsets[i+1]]
}

// MemBytes estimates the batch's resident column bytes (labels, dense
// bitmap+values, CSR offsets+values). The fleet cache weighs entries by
// it; a view reports the same size as its source, whose columns it
// holds and whose labels it copies.
func (b *Batch) MemBytes() int64 {
	total := int64(len(b.Labels)) * 4
	for _, c := range b.Dense {
		total += int64(len(c.Present)) + int64(len(c.Values))*4
	}
	for _, c := range b.Sparse {
		total += int64(len(c.Offsets))*4 + int64(len(c.Values))*8 + int64(len(c.Dict))*8
	}
	for _, c := range b.ScoreList {
		total += int64(len(c.Offsets))*4 + int64(len(c.Values))*12
	}
	return total
}

// newBatch allocates an empty batch for rows rows.
func newBatch(rows int) *Batch {
	return &Batch{
		Rows:      rows,
		Dense:     make(map[schema.FeatureID]*DenseColumn),
		Sparse:    make(map[schema.FeatureID]*SparseColumn),
		ScoreList: make(map[schema.FeatureID]*ScoreListColumn),
	}
}

// Reader reads a DWRF file from a Tectonic cluster.
type Reader struct {
	cluster *tectonic.Cluster
	path    string
	footer  FileFooter

	// openStats is the recovery accounting of the footer fetch itself
	// (retries, hedges, quarantines planted while healing a corrupt
	// footer). It is folded into the stats of the first stripe fetch —
	// OpenReader has no stats return of its own, and the footer read is
	// as much a part of the self-healing read path as any stripe read.
	openOnce  sync.Once
	openStats ReadStats
}

// heal is the read path's one recovery loop, shared by the footer fetch
// and the stripe fetch: it runs attempt — one fetch-and-verify pass that
// reports its stats and which replica served each chunk it judged — up
// to replication+1 times. On tectonic.ErrCorrupt it quarantines what was
// served and refetches while that condemned a fresh replica; when every
// replica that can serve the bytes is already quarantined the data is
// unrecoverable, not transient, and the loop gives up. Any other
// retryable error simply tries again. Every attempt's stats, and the
// quarantines, accumulate into stats.
func heal(cluster *tectonic.Cluster, path string, stats *ReadStats, attempt func() (ReadStats, []tectonic.ReplicaServe, error)) error {
	var err error
	for i := 0; i <= cluster.Replication(); i++ {
		var s ReadStats
		var served []tectonic.ReplicaServe
		s, served, err = attempt()
		stats.add(s)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, tectonic.ErrCorrupt):
			fresh := false
			for _, sv := range served {
				if cluster.Quarantine(path, sv.Chunk, sv.Node) {
					fresh = true
					stats.Quarantines++
				}
			}
			if !fresh {
				return fmt.Errorf("dwrf: %s: every replica that served it is quarantined, none left to refetch from: %w", path, err)
			}
		case !tectonic.IsRetryable(err):
			return err
		}
	}
	return err
}

// OpenReader fetches and parses the file footer. The footer carries no
// checksum of its own, so structural failures — clobbered magic, a
// footer length that lies, gob that no longer decodes — are treated as
// replica corruption: the serving replicas are quarantined and the
// footer is refetched from others, exactly like a stripe whose content
// hash disagrees (heal). Only when every replica returns an unparsable
// footer (or the file is equally malformed on all of them) does Open
// fail.
func OpenReader(cluster *tectonic.Cluster, path string) (*Reader, error) {
	size, err := cluster.Size(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{cluster: cluster, path: path}
	err = heal(cluster, path, &r.openStats, func() (stats ReadStats, served []tectonic.ReplicaServe, err error) {
		r.footer, served, stats.Recovery, err = fetchFooter(cluster, path, size)
		return stats, served, err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// fetchFooter is one footer fetch-and-parse pass, returning the replica
// provenance of the bytes it judged and the recovery work the underlying
// reads performed.
func fetchFooter(cluster *tectonic.Cluster, path string, size int64) (FileFooter, []tectonic.ReplicaServe, Recovery, error) {
	var footer FileFooter
	var rec Recovery
	tailLen := int64(8 + len(Magic))
	if size < tailLen {
		return footer, nil, rec, fmt.Errorf("dwrf: %s too short (%d bytes)", path, size)
	}
	tail, tr, err := cluster.ReadAtTraced(path, size-tailLen, tailLen)
	rec.trace(tr)
	served := tr.Served
	if err != nil {
		return footer, served, rec, err
	}
	if string(tail[8:]) != Magic {
		return footer, served, rec, fmt.Errorf("dwrf: %s missing trailing magic: %w", path, tectonic.ErrCorrupt)
	}
	footerLen := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerLen <= 0 || footerLen > size-tailLen {
		return footer, served, rec, fmt.Errorf("dwrf: %s has invalid footer length %d: %w", path, footerLen, tectonic.ErrCorrupt)
	}
	footerBytes, ftr, err := cluster.ReadAtTraced(path, size-tailLen-footerLen, footerLen)
	rec.trace(ftr)
	served = append(served, ftr.Served...)
	if err != nil {
		return footer, served, rec, err
	}
	if err := gob.NewDecoder(bytes.NewReader(footerBytes)).Decode(&footer); err != nil {
		return footer, served, rec, fmt.Errorf("dwrf: decode footer of %s: %v: %w", path, err, tectonic.ErrCorrupt)
	}
	if footer.Version > Version {
		return footer, served, rec, fmt.Errorf("dwrf: %s written by format v%d, reader supports up to v%d", path, footer.Version, Version)
	}
	return footer, served, rec, nil
}

// Version reports the format version the file was written with (v1
// files predate the footer field and report 1).
func (r *Reader) Version() int {
	if r.footer.Version == 0 {
		return 1
	}
	return r.footer.Version
}

// Rows reports the total row count.
func (r *Reader) Rows() int { return r.footer.Rows }

// Stripes reports the stripe count.
func (r *Reader) Stripes() int { return len(r.footer.Stripes) }

// Flattened reports whether the file uses the feature-flattened layout.
func (r *Reader) Flattened() bool { return r.footer.Flattened }

// StripeRows reports the row count of stripe i.
func (r *Reader) StripeRows(i int) int { return r.footer.Stripes[i].Rows }

// StripeContentHash reports stripe i's content digest (FNV-1a over its
// compressed stream payloads, recorded at write time). Zero for files
// written before the field existed; content-addressed callers fall back
// to path+stripe identity then.
func (r *Reader) StripeContentHash(i int) uint64 { return r.footer.Stripes[i].ContentHash }

// DataBytes reports the total stored stream bytes (excluding header and
// footer).
func (r *Reader) DataBytes() int64 {
	var total int64
	for _, st := range r.footer.Stripes {
		total += st.Length
	}
	return total
}

// FeatureBytes reports stored (compressed) bytes per feature ID across all
// stripes, the per-column storage footprint used by the Table 5 and
// Figure 7 analyses. Label and row-data streams are reported under
// feature ID 0.
func (r *Reader) FeatureBytes() map[schema.FeatureID]int64 {
	out := make(map[schema.FeatureID]int64)
	for _, st := range r.footer.Stripes {
		for _, s := range st.Streams {
			out[s.Feature] += s.Length
		}
	}
	return out
}

// ProjectedBytes reports the stored bytes a projection selects (plus
// labels), without reading data. This answers Table 5's "% bytes used".
func (r *Reader) ProjectedBytes(proj *schema.Projection) int64 {
	var total int64
	for _, st := range r.footer.Stripes {
		for _, s := range st.Streams {
			if s.Kind == streamRowData || s.Kind == streamLabel || proj == nil || proj.Contains(s.Feature) {
				total += s.Length
			}
		}
	}
	return total
}

// selectStreams appends to dst the streams of a stripe needed for the
// projection, in file (offset) order. The label stream (or the row-data
// stream for unflattened files) is always selected.
func selectStreams(dst []StreamMeta, meta *StripeMeta, proj *schema.Projection) []StreamMeta {
	for _, s := range meta.Streams {
		switch s.Kind {
		case streamRowData, streamLabel:
			dst = append(dst, s)
		default:
			if proj == nil || proj.Contains(s.Feature) {
				dst = append(dst, s)
			}
		}
	}
	// The writer lays streams out in footer order, so this sort finds
	// nothing to do; it is here for footers that say otherwise.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Offset < dst[j-1].Offset; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// ioPlan is one physical read covering the selected streams [lo, hi).
type ioPlan struct {
	offset, length int64
	lo, hi         int
}

// planIO appends to dst the physical read plan for selected, which is in
// offset order: runs of streams separated by at most coalesce unwanted
// bytes share one read.
func planIO(dst []ioPlan, selected []StreamMeta, coalesce int64) []ioPlan {
	for i, s := range selected {
		if n := len(dst); n > 0 {
			cur := &dst[n-1]
			if gap := s.Offset - (cur.offset + cur.length); gap >= 0 && gap <= coalesce {
				cur.length = s.Offset + s.Length - cur.offset
				cur.hi = i + 1
				continue
			}
		}
		dst = append(dst, ioPlan{offset: s.Offset, length: s.Length, lo: i, hi: i + 1})
	}
	return dst
}

// bufClassCaps are the capacity classes of the byte-buffer free lists.
// A buffer returns to the smallest class its capacity fits; buffers over
// the largest class are dropped for the GC, so one jumbo stream can
// never pin an arbitrarily large buffer in a list (a single unclassed
// list would keep whatever the biggest stream ever seen allocated).
var bufClassCaps = [...]int64{4 << 10, 64 << 10, 1 << 20, 16 << 20}

// bufClass returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class (not recycled).
func bufClass(n int64) int {
	for i, c := range bufClassCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// bufPool is a set of capacity-classed byte-buffer free lists.
type bufPool struct {
	classes [len(bufClassCaps)]freelist.List[[]byte]
}

// get returns a buffer of length n. The recycled buffer's capacity may
// trail n within its class, in which case it is replaced by one with its
// capacity rounded up to a power of two (at most the class's), so the
// class settles on buffers that fit all its requests.
func (p *bufPool) get(n int64) []byte {
	var b []byte
	cls := bufClass(n)
	if cls >= 0 {
		b, _ = p.classes[cls].Get()
	}
	if int64(cap(b)) < n {
		c := n
		if cls >= 0 {
			c = min(int64(1)<<bits.Len64(uint64(n-1)), bufClassCaps[cls])
		}
		return make([]byte, n, c)
	}
	return b[:n]
}

// put recycles a buffer into the class its capacity fits.
func (p *bufPool) put(b []byte) {
	cls := bufClass(int64(cap(b)))
	if cap(b) == 0 || cls < 0 {
		return // empty, or jumbo: let the GC take it
	}
	p.classes[cls].Put(b)
}

// encPool recycles the staging buffers holding each stream's encrypted,
// compressed bytes between fetch and decompression, so a stripe read
// costs no per-stream staging allocation.
var encPool bufPool

// payloadPool recycles decompressed stream payloads: the column
// and row decoders parse every value out of them, so once a stripe is
// decoded its payload buffers go straight back.
var payloadPool bufPool

// stripeRead is one stripe read's working set: the streams the
// projection selects, in file order; the physical reads that cover them;
// and each selected stream's inflated payload (payloads[i] is
// selected[i]'s). It is recycled, so a stripe read builds none of it.
type stripeRead struct {
	selected []StreamMeta
	plans    []ioPlan
	payloads [][]byte
	// served is the current attempt's provenance, which replica served
	// each chunk; heal reads it before the next attempt overwrites it.
	served []tectonic.ReplicaServe
	iv     counterBlock // the decrypt pass's counter block
}

var stripeReads freelist.List[*stripeRead]

// releasePayloads recycles every payload fetched so far. Callers must
// have finished parsing: column and row decoders copy values out, never
// alias the payload bytes.
func (sr *stripeRead) releasePayloads() {
	for i, p := range sr.payloads {
		payloadPool.put(p)
		sr.payloads[i] = nil
	}
	sr.payloads = sr.payloads[:0]
}

// release recycles the payloads and the working set itself.
func (sr *stripeRead) release() {
	sr.releasePayloads()
	stripeReads.Put(sr)
}

// fetchStripe executes the I/O plan through the self-healing read path:
// each attempt fetches via the cluster's traced reads (which already
// fail over across replicas), verifies StripeMeta.ContentHash when the
// fetch covers every stream of the stripe, and on corruption — a hash
// mismatch, or a stream that does not inflate to its recorded length —
// heal quarantines the replicas that served the bytes and refetches from
// others. The stripe fails permanently only when no fresh replica
// remains, i.e. every replica serves the same bad bytes. On success the
// caller owns the returned stripeRead and releases it once decoded.
func (r *Reader) fetchStripe(meta *StripeMeta, proj *schema.Projection, opts ReadOptions) (*stripeRead, ReadStats, error) {
	var stats ReadStats
	// The footer fetch's recovery work reports through the first stripe
	// read so it reaches ResourceReport/WorkerStats like any other read.
	r.openOnce.Do(func() { stats.add(r.openStats) })
	sr, ok := stripeReads.Get()
	if !ok {
		sr = new(stripeRead)
	}
	sr.selected = selectStreams(sr.selected[:0], meta, proj)
	sr.plans = planIO(sr.plans[:0], sr.selected, opts.CoalesceBytes)
	err := heal(r.cluster, r.path, &stats, func() (ReadStats, []tectonic.ReplicaServe, error) {
		s, served, err := r.fetchStripeAttempt(meta, sr)
		if errors.Is(err, tectonic.ErrCorrupt) {
			s.CorruptStripes++
		}
		return s, served, err
	})
	if err != nil {
		sr.release()
		return nil, stats, err
	}
	return sr, stats, nil
}

// fetchStripeAttempt is one fetch pass over sr's plan: read, decrypt and
// inflate each selected stream into sr.payloads, and verify the stripe
// content hash when the selection covers all streams (streams append in
// offset order at write time, so fetch order reproduces the writer's
// digest chaining). Storage reads go through the cluster's borrowed-slice
// path when the range is memory-resident in one chunk, and the decrypt
// pass writes straight from the (borrowed or copied) raw bytes into the
// staging buffer — no intermediate copy either way. Error paths release
// every payload already fetched; the stripe's buffers never leak on a
// partial fetch. The returned ReplicaServe list records which node
// served each chunk, the provenance quarantine needs.
func (r *Reader) fetchStripeAttempt(meta *StripeMeta, sr *stripeRead) (ReadStats, []tectonic.ReplicaServe, error) {
	var stats ReadStats
	sr.served = sr.served[:0]
	verifying := meta.ContentHash != 0 && len(sr.selected) == len(meta.Streams)
	var hash uint64
	fail := func(err error) (ReadStats, []tectonic.ReplicaServe, error) {
		sr.releasePayloads()
		return stats, sr.served, err
	}
	for _, p := range sr.plans {
		fetchStart := time.Now()
		raw, _, tr, err := r.cluster.ReadAtBorrowTraced(r.path, p.offset, p.length, sr.served)
		stats.FetchWall += time.Since(fetchStart)
		stats.trace(tr)
		sr.served = tr.Served
		if err != nil {
			return fail(fmt.Errorf("dwrf: %s stripe@%d: fetch [%d,%d): %w", r.path, meta.Offset, p.offset, p.offset+p.length, err))
		}
		stats.IOs++
		stats.BytesRead += p.length
		decodeStart := time.Now()
		for _, s := range sr.selected[p.lo:p.hi] {
			stats.BytesWanted += s.Length
			enc := encPool.get(s.Length)
			if err := cryptStreamTo(enc, raw[s.Offset-p.offset:s.Offset-p.offset+s.Length], s.Offset, &sr.iv); err != nil {
				encPool.put(enc)
				return fail(fmt.Errorf("dwrf: %s stripe@%d stream at %d: %w", r.path, meta.Offset, s.Offset, err))
			}
			if verifying {
				hash = fnvMix(hash, enc)
			}
			// A stream that does not inflate to its recorded length is
			// corrupt bytes, not a format error: decompress classifies
			// it so heal quarantines and retries another replica.
			dec, err := decompress(enc, s.RawLength)
			encPool.put(enc)
			if err != nil {
				return fail(fmt.Errorf("dwrf: %s stripe@%d stream at %d: %w", r.path, meta.Offset, s.Offset, err))
			}
			stats.BytesDecoded += int64(len(dec))
			stats.StreamsDecoded++
			sr.payloads = append(sr.payloads, dec)
		}
		stats.DecodeWall += time.Since(decodeStart)
	}
	if verifying && hash != meta.ContentHash {
		return fail(fmt.Errorf("dwrf: %s stripe@%d: content hash %x, footer records %x: %w", r.path, meta.Offset, hash, meta.ContentHash, tectonic.ErrCorrupt))
	}
	stats.BytesOverRead = stats.BytesRead - stats.BytesWanted
	return stats, sr.served, nil
}

// ReadStripe decodes stripe i under the projection into the columnar
// Batch — the in-memory flatmap (FM), the one form a read hands on —
// for either layout. A flattened file fetches only the selected streams
// and decodes each straight into an arena-recycled column; a regular-map
// file fetches its whole row-data stream (the paper's "over read"),
// decodes the rows and converts the projected features to columns, the
// row-to-column copy the flatmap removes. The returned batch owns its
// columns and hands them back on Release. A nil arena degrades to plain
// allocation, and regular-map batches never use it. The arena is a
// call-site argument rather than a ReadOptions field because
// ReadOptions travels inside gob-encoded session specs; an arena is
// strictly node-local.
func (r *Reader) ReadStripe(i int, proj *schema.Projection, opts ReadOptions, arena *Arena) (*Batch, ReadStats, error) {
	if i < 0 || i >= len(r.footer.Stripes) {
		return nil, ReadStats{}, fmt.Errorf("dwrf: stripe %d out of range [0,%d)", i, len(r.footer.Stripes))
	}
	meta := &r.footer.Stripes[i]
	sr, stats, err := r.fetchStripe(meta, proj, opts)
	if err != nil {
		return nil, stats, err
	}
	decodeStart := time.Now()
	var b *Batch
	if r.footer.Flattened {
		b, err = decodeStripeBatch(meta, r.Version(), sr, arena)
	} else {
		b, err = decodeRowStripe(meta, sr, proj)
	}
	sr.release()
	stats.DecodeWall += time.Since(decodeStart)
	if err != nil {
		return nil, stats, err
	}
	return b, stats, nil
}

// decodeRowStripe converts a regular-map stripe's row-data stream into
// the batch of the features proj selects (all when proj is nil).
func decodeRowStripe(meta *StripeMeta, sr *stripeRead, proj *schema.Projection) (*Batch, error) {
	if len(sr.selected) == 0 || sr.selected[0].Kind != streamRowData {
		return nil, fmt.Errorf("dwrf: regular-map stripe has no row-data stream")
	}
	if enc := sr.selected[0].Encoding; enc != EncPlain {
		return nil, fmt.Errorf("dwrf: %v encoding invalid for row-data stream", enc)
	}
	rows, err := decodeRowData(sr.payloads[0])
	if err != nil {
		return nil, err
	}
	if len(rows) != meta.Rows {
		return nil, fmt.Errorf("dwrf: row-data stream holds %d rows, footer records %d", len(rows), meta.Rows)
	}
	return batchFromSamples(rows, proj), nil
}

// decodeStripeBatch assembles the columnar batch from a stripe read's
// payloads, streaming each stream straight into its (arena-recycled)
// column — no per-row slices, no entry buffering. version is the file's
// format version. Every read selects the label stream, and it must hold
// one label per footer row, so a batch leaves here with len(Labels) ==
// Rows. On error the partial batch is released back to the arena.
func decodeStripeBatch(meta *StripeMeta, version int, sr *stripeRead, arena *Arena) (*Batch, error) {
	b := arena.NewBatch(meta.Rows)
	var err error
	for i, s := range sr.selected {
		payload := sr.payloads[i]
		switch s.Kind {
		case streamLabel:
			b.Labels, err = decodeLabels(payload, arena)
		case streamDense:
			col := arena.Dense(meta.Rows)
			err = decodeDenseInto(payload, s.Encoding, meta.Rows, col)
			b.Dense[s.Feature] = col
		case streamSparse:
			col := arena.Sparse(meta.Rows)
			err = decodeSparseInto(payload, s.Encoding, version, meta.Rows, col)
			b.Sparse[s.Feature] = col
		case streamScoreList:
			col := arena.ScoreList(meta.Rows)
			err = decodeScoreListInto(payload, s.Encoding, version, meta.Rows, col)
			b.ScoreList[s.Feature] = col
		}
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("dwrf: decode feature %d: %w", s.Feature, err)
		}
	}
	if len(b.Labels) != meta.Rows {
		b.Release()
		return nil, fmt.Errorf("dwrf: label stream holds %d labels, footer records %d rows", len(b.Labels), meta.Rows)
	}
	return b, nil
}
