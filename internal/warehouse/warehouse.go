// Package warehouse implements the Hive-style data warehouse of §3.1.2:
// partitioned tables whose rows are stored as DWRF columnar files in a
// Tectonic cluster.
//
// Training jobs address data exactly as in the paper: a table, a row
// filter (the set of date partitions to read), and a column filter (the
// feature projection). The warehouse also exposes the storage statistics
// (partition sizes, per-feature bytes) behind Tables 3 and 5 and
// Figure 7.
package warehouse

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// ErrNotFound is returned for unknown tables or partitions.
var ErrNotFound = errors.New("warehouse: not found")

// Warehouse is a catalog of partitioned tables over one Tectonic cluster.
type Warehouse struct {
	cluster *tectonic.Cluster

	mu     sync.Mutex
	tables map[string]*Table

	readerMu    sync.Mutex
	readers     map[string]*list.Element // *readerEntry
	readerLRU   *list.List               // front = most recently used
	readerLimit int
}

// readerEntry is one cached reader. open runs the file open once,
// whoever asks first; later and concurrent askers share its outcome.
type readerEntry struct {
	path string
	open sync.Once
	r    *dwrf.Reader
	err  error
}

// DefaultReaderCacheLimit bounds the shared reader cache when no
// explicit limit is set: enough for every partition of a sizeable
// training window to stay open, while a long-lived service scanning
// thousands of partitions no longer grows the map without bound.
const DefaultReaderCacheLimit = 256

// New returns an empty warehouse on cluster.
func New(cluster *tectonic.Cluster) *Warehouse {
	return &Warehouse{
		cluster:     cluster,
		tables:      make(map[string]*Table),
		readers:     make(map[string]*list.Element),
		readerLRU:   list.New(),
		readerLimit: DefaultReaderCacheLimit,
	}
}

// SetReaderCacheLimit bounds the shared reader cache to n open readers,
// evicting least-recently-used entries immediately if the cache is
// already over the new bound. It shares its sizing story, and its
// convention, with the fleet batch cache (cmd/dppd exposes both knobs
// side by side): 0 restores the default, and a negative n keeps no
// reader resident, so every CachedReader call opens its file — what a
// fleet of cold workers, each leasing one split of it, does to storage.
func (w *Warehouse) SetReaderCacheLimit(n int) {
	if n == 0 {
		n = DefaultReaderCacheLimit
	}
	w.readerMu.Lock()
	defer w.readerMu.Unlock()
	w.readerLimit = max(n, 0)
	w.evictReadersLocked()
}

// evictReadersLocked drops least-recently-used readers until the cache
// fits the limit. Evicted readers are simply dropped: dwrf readers hold
// no OS resources (Tectonic is in-process), so eviction is garbage
// collection of footer decode state; in-flight reads through an evicted
// instance finish normally. Callers hold readerMu.
func (w *Warehouse) evictReadersLocked() {
	for w.readerLRU.Len() > w.readerLimit {
		el := w.readerLRU.Back()
		w.readerLRU.Remove(el)
		delete(w.readers, el.Value.(*readerEntry).path)
	}
}

// Cluster exposes the underlying storage (for experiments that inspect
// I/O accounting).
func (w *Warehouse) Cluster() *tectonic.Cluster { return w.cluster }

// Table is one partitioned dataset.
type Table struct {
	Name   string
	Schema *schema.TableSchema
	// WriteOptions is the DWRF layout used for new partitions; changing
	// it affects only subsequently written partitions, mirroring how the
	// paper rolled out format optimizations.
	WriteOptions dwrf.WriterOptions

	wh *Warehouse

	mu         sync.Mutex
	partitions map[string]*Partition
	unbounded  bool
	closed     bool  // producer ended the stream (unbounded tables only)
	generation int64 // bumped on every partition publish and stream close
	// changed is closed on the next generation bump; allocated only
	// while someone waits (see Changed).
	changed chan struct{}
}

// bumpLocked advances the generation and wakes every Changed waiter.
// Callers hold t.mu.
func (t *Table) bumpLocked() {
	t.generation++
	if t.changed != nil {
		close(t.changed)
		t.changed = nil
	}
}

// Partition is one date-keyed slice of a table, stored as a single DWRF
// file.
type Partition struct {
	Key  string
	Path string
	Rows int
	// Bytes is the compressed data size (streams only).
	Bytes int64
	// MinEventTime/MaxEventTime bound the event times (Unix nanoseconds)
	// of the rows inside, recorded by the ETL writer for freshness
	// accounting. Zero when the writer had no event-time information.
	MinEventTime int64
	MaxEventTime int64
}

// CreateTable registers a new table.
func (w *Warehouse) CreateTable(name string, ts *schema.TableSchema, opts dwrf.WriterOptions) (*Table, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.tables[name]; ok {
		return nil, fmt.Errorf("warehouse: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: ts, WriteOptions: opts, wh: w, partitions: make(map[string]*Partition)}
	w.tables[name] = t
	return t, nil
}

// CreateUnboundedTable registers an append-only streaming table: a
// producer (the ETL pipeline) keeps sealing new partitions into it until
// it calls CloseStream. Consumers that saw StreamOpen() == true wait on
// Changed for newly visible partitions instead of treating the current
// set as final.
func (w *Warehouse) CreateUnboundedTable(name string, ts *schema.TableSchema, opts dwrf.WriterOptions) (*Table, error) {
	t, err := w.CreateTable(name, ts, opts)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.unbounded = true
	t.mu.Unlock()
	return t, nil
}

// Table looks up a table by name.
func (w *Warehouse) Table(name string) (*Table, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, name)
	}
	return t, nil
}

// partitionPath names the backing file of a partition.
func partitionPath(table, key string) string {
	return fmt.Sprintf("warehouse/%s/%s.dwrf", table, key)
}

// PartitionWriter appends rows to a new partition.
type PartitionWriter struct {
	table    *Table
	key      string
	w        *dwrf.Writer
	rows     int
	minEvent int64
	maxEvent int64
}

// NewPartition opens a writer for a new partition with the given key
// (e.g. "2026-06-01"). The partition becomes visible on Close. An
// orphaned backing file from a writer that crashed before Close (the
// partition never became visible) is deleted and rewritten — this is the
// retry path of the streaming ETL pipeline's seal protocol.
func (t *Table) NewPartition(key string) (*PartitionWriter, error) {
	t.mu.Lock()
	_, exists := t.partitions[key]
	closed := t.unbounded && t.closed
	t.mu.Unlock()
	if exists {
		return nil, fmt.Errorf("warehouse: partition %s/%s already exists", t.Name, key)
	}
	if closed {
		return nil, fmt.Errorf("warehouse: table %s stream is closed", t.Name)
	}
	path := partitionPath(t.Name, key)
	if t.wh.cluster.Exists(path) {
		if err := t.wh.cluster.Delete(path); err != nil {
			return nil, err
		}
	}
	w, err := dwrf.NewWriter(t.wh.cluster, path, t.Schema, t.WriteOptions)
	if err != nil {
		return nil, err
	}
	return &PartitionWriter{table: t, key: key, w: w}, nil
}

// WriteRow appends one sample.
func (pw *PartitionWriter) WriteRow(s *schema.Sample) error {
	if err := pw.w.WriteRow(s); err != nil {
		return err
	}
	pw.rows++
	return nil
}

// NoteEventTime widens the partition's event-time bounds by one row's
// event time (Unix nanoseconds). Zero timestamps are ignored.
func (pw *PartitionWriter) NoteEventTime(ns int64) {
	if ns == 0 {
		return
	}
	if pw.minEvent == 0 || ns < pw.minEvent {
		pw.minEvent = ns
	}
	if ns > pw.maxEvent {
		pw.maxEvent = ns
	}
}

// Close seals the partition and publishes it in the table. Sealing and
// visibility are one atomic step: readers either see the complete,
// immutable partition or nothing — a publish failure anywhere in the
// sequence leaves the table exactly as it was, with no entry and no
// generation bump, so a retrying producer can Abort the orphan and
// re-produce the partition from its checkpoint.
func (pw *PartitionWriter) Close() error {
	if err := pw.w.Close(); err != nil {
		return err
	}
	path := partitionPath(pw.table.Name, pw.key)
	r, err := dwrf.OpenReader(pw.table.wh.cluster, path)
	if err != nil {
		return err
	}
	p := &Partition{
		Key: pw.key, Path: path, Rows: pw.rows, Bytes: r.DataBytes(),
		MinEventTime: pw.minEvent, MaxEventTime: pw.maxEvent,
	}
	pw.table.mu.Lock()
	pw.table.partitions[pw.key] = p
	pw.table.bumpLocked()
	pw.table.mu.Unlock()
	return nil
}

// Abort discards a partition that will never be published: the backing
// file is reclaimed and the table is untouched (the partition was never
// visible). It is the cleanup half of a producer's write-retry loop —
// called after a failed Close so the re-produce starts from a clean
// slate instead of leaking an orphan file per attempt. Idempotent.
func (pw *PartitionWriter) Abort() error {
	path := partitionPath(pw.table.Name, pw.key)
	if !pw.table.wh.cluster.Exists(path) {
		return nil
	}
	return pw.table.wh.cluster.Delete(path)
}

// WriteStats reports the write-side recovery work (append retries, torn
// ack dedups and repairs, backoff paid) behind this partition's rows so
// far.
func (pw *PartitionWriter) WriteStats() dwrf.WriteStats { return pw.w.WriteStats() }

// Unbounded reports whether the table was created as a streaming table.
func (t *Table) Unbounded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unbounded
}

// StreamOpen reports whether more partitions may still appear: true for
// an unbounded table whose producer has not yet called CloseStream,
// always false for static tables.
func (t *Table) StreamOpen() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unbounded && !t.closed
}

// CloseStream marks an unbounded table's stream as ended: no further
// partitions will be published, and sessions tailing the table may
// finish once every visible split is consumed. Idempotent.
func (t *Table) CloseStream() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.unbounded {
		return fmt.Errorf("warehouse: table %s is not unbounded", t.Name)
	}
	if !t.closed {
		t.closed = true
		t.bumpLocked()
	}
	return nil
}

// Generation reports a counter bumped on every partition publish and on
// stream close. Readers compare generations to detect new work without
// re-enumerating splits.
func (t *Table) Generation() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.generation
}

// Changed returns a channel that is closed the next time Generation
// moves (a partition is published or the stream closes). Take it before
// reading the table and wait on it only if the read found nothing new,
// so a publish between the read and the wait is never missed; after it
// fires, re-read and take a fresh one.
func (t *Table) Changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.changed == nil {
		t.changed = make(chan struct{})
	}
	return t.changed
}

// Partitions returns the table's partitions sorted by key.
func (t *Table) Partitions() []*Partition {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Partition, 0, len(t.partitions))
	for _, p := range t.partitions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Partition looks up one partition.
func (t *Table) Partition(key string) (*Partition, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.partitions[key]
	if !ok {
		return nil, fmt.Errorf("%w: partition %s/%s", ErrNotFound, t.Name, key)
	}
	return p, nil
}

// TotalBytes reports the compressed size of all partitions (Table 3's
// "All Partitions").
func (t *Table) TotalBytes() int64 {
	var total int64
	for _, p := range t.Partitions() {
		total += p.Bytes
	}
	return total
}

// BytesForKeys reports the cumulative size of the named partitions
// (Table 3's "Used Partitions").
func (t *Table) BytesForKeys(keys []string) (int64, error) {
	var total int64
	for _, k := range keys {
		p, err := t.Partition(k)
		if err != nil {
			return 0, err
		}
		total += p.Bytes
	}
	return total, nil
}

// FeatureBytes aggregates stored bytes per feature across the named
// partitions (Figure 7's byte-popularity basis). Pass nil for all
// partitions.
func (t *Table) FeatureBytes(keys []string) (map[schema.FeatureID]int64, error) {
	if keys == nil {
		for _, p := range t.Partitions() {
			keys = append(keys, p.Key)
		}
	}
	out := make(map[schema.FeatureID]int64)
	for _, k := range keys {
		p, err := t.Partition(k)
		if err != nil {
			return nil, err
		}
		r, err := dwrf.OpenReader(t.wh.cluster, p.Path)
		if err != nil {
			return nil, err
		}
		for id, b := range r.FeatureBytes() {
			out[id] += b
		}
	}
	return out, nil
}

// ProjectedBytes reports the bytes a projection selects across the named
// partitions (Table 5's "% bytes used" numerator).
func (t *Table) ProjectedBytes(keys []string, proj *schema.Projection) (int64, error) {
	var total int64
	for _, k := range keys {
		p, err := t.Partition(k)
		if err != nil {
			return 0, err
		}
		r, err := dwrf.OpenReader(t.wh.cluster, p.Path)
		if err != nil {
			return 0, err
		}
		total += r.ProjectedBytes(proj)
	}
	return total, nil
}

// Split is one self-contained unit of read work: a stripe of a partition
// file. The DPP Master hands splits to Workers (§3.2.1).
type Split struct {
	Table     string
	Partition string
	Path      string
	Stripe    int
	Rows      int
	// MinEventTime/MaxEventTime carry the partition's event-time bounds
	// (Unix nanoseconds, zero if unknown) so the master can account
	// event-time→trainer freshness when the split completes.
	MinEventTime int64
	MaxEventTime int64
}

// Splits enumerates the splits covering the named partitions in order.
// Pass nil for all partitions.
func (t *Table) Splits(keys []string) ([]Split, error) {
	if keys == nil {
		for _, p := range t.Partitions() {
			keys = append(keys, p.Key)
		}
	}
	var out []Split
	for _, k := range keys {
		splits, err := t.PartitionSplits(k)
		if err != nil {
			return nil, err
		}
		out = append(out, splits...)
	}
	return out, nil
}

// PartitionSplits enumerates the splits of one visible partition. The
// DPP master uses it to discover work incrementally as a streaming ETL
// seals partitions, without re-enumerating the whole table. The footer
// comes through CachedReader, so a new master over a resident partition
// decodes no footer again.
func (t *Table) PartitionSplits(key string) ([]Split, error) {
	p, err := t.Partition(key)
	if err != nil {
		return nil, err
	}
	r, err := t.wh.CachedReader(p.Path)
	if err != nil {
		return nil, err
	}
	out := make([]Split, 0, r.Stripes())
	for i := 0; i < r.Stripes(); i++ {
		out = append(out, Split{
			Table:        t.Name,
			Partition:    key,
			Path:         p.Path,
			Stripe:       i,
			Rows:         r.StripeRows(i),
			MinEventTime: p.MinEventTime,
			MaxEventTime: p.MaxEventTime,
		})
	}
	return out, nil
}

// TableReader is the consumer-side view of a table: what a DPP master
// needs to enumerate and tail it. Static and unbounded tables both
// satisfy it; only unbounded tables ever report StreamOpen() == true, a
// changing Generation or a Changed() that fires.
type TableReader interface {
	Partitions() []*Partition
	Splits(keys []string) ([]Split, error)
	PartitionSplits(key string) ([]Split, error)
	Generation() int64
	Changed() <-chan struct{}
	StreamOpen() bool
}

var _ TableReader = (*Table)(nil)

// ReadSplit reads one split under a projection into a batch, opening
// the split's file on every call: one footer fetch per leased split, as
// Table 12's storage column counts it. Release the batch when done.
func (w *Warehouse) ReadSplit(sp Split, proj *schema.Projection, opts dwrf.ReadOptions) (*dwrf.Batch, dwrf.ReadStats, error) {
	r, err := dwrf.OpenReader(w.cluster, sp.Path)
	if err != nil {
		return nil, dwrf.ReadStats{}, err
	}
	return r.ReadStripe(sp.Stripe, proj, opts, nil)
}

// CachedReader returns a shared reader for path, opening (and footer-
// decoding) it at most once per warehouse while resident: callers that
// race for a file nobody has opened yet wait for one open instead of
// each fetching the footer and all but one throwing theirs away — and
// with it the open's recovery accounting, which the reader folds into
// its first stripe read. Readers are immutable after open, so the
// cached instance is safe for concurrent use; partitions are immutable
// once published, so the cache never goes stale. Residency is
// LRU-bounded (SetReaderCacheLimit): the map no longer grows with every
// partition a long-lived service ever touched. A failed open is not
// cached; the next caller tries again.
func (w *Warehouse) CachedReader(path string) (*dwrf.Reader, error) {
	w.readerMu.Lock()
	el, ok := w.readers[path]
	if ok {
		w.readerLRU.MoveToFront(el)
	} else {
		el = w.readerLRU.PushFront(&readerEntry{path: path})
		w.readers[path] = el
		w.evictReadersLocked()
	}
	w.readerMu.Unlock()
	e := el.Value.(*readerEntry)
	e.open.Do(func() { e.r, e.err = dwrf.OpenReader(w.cluster, path) })
	if e.err != nil {
		w.readerMu.Lock()
		if w.readers[path] == el {
			w.readerLRU.Remove(el)
			delete(w.readers, path)
		}
		w.readerMu.Unlock()
	}
	return e.r, e.err
}

// ReadSplitBatchCached reads one split into a batch through the shared
// reader cache: the file footer is fetched and decoded once per file
// rather than once per split.
func (w *Warehouse) ReadSplitBatchCached(sp Split, proj *schema.Projection, opts dwrf.ReadOptions) (*dwrf.Batch, dwrf.ReadStats, error) {
	return w.ReadSplitBatchCachedArena(sp, proj, opts, nil)
}

// ReadSplitBatchCachedArena is ReadSplitBatchCached decoding into
// arena-recycled columns (nil arena degrades to plain allocation);
// release the batch when done with it. The DPP worker threads its
// per-worker arena through here so stripe decode reuses the previous
// stripe's buffers.
func (w *Warehouse) ReadSplitBatchCachedArena(sp Split, proj *schema.Projection, opts dwrf.ReadOptions, arena *dwrf.Arena) (*dwrf.Batch, dwrf.ReadStats, error) {
	r, err := w.CachedReader(sp.Path)
	if err != nil {
		return nil, dwrf.ReadStats{}, err
	}
	return r.ReadStripe(sp.Stripe, proj, opts, arena)
}
