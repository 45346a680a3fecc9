// Package tectonic implements an append-only distributed filesystem in the
// style of Meta's Tectonic (§3.1.2 of the paper): files are split into
// fixed-size chunks, each chunk is replicated across storage nodes, and
// every read is accounted against the owning node's disk model so that
// IOPS, seek behaviour, and I/O-size distributions (Table 6) can be
// measured.
//
// Data is held in memory — the simulation substitutes for exabyte HDD
// fleets — but the read/write path is real: callers get back exactly the
// bytes they wrote, through the same chunked, replicated topology the
// paper describes.
package tectonic

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"dsi/internal/clock"
	"dsi/internal/hw"
	"dsi/internal/metrics"
	"dsi/internal/tectonic/faults"
)

// DefaultChunkSize is Tectonic's chunk size; §7.5 notes filtering reduced
// I/O sizes "from almost 8 MB (Tectonic's chunk size)".
const DefaultChunkSize = 8 << 20

// ErrNotFound is returned for operations on unknown paths.
var ErrNotFound = errors.New("tectonic: file not found")

// ErrClosed is returned when appending to a sealed file.
var ErrClosed = errors.New("tectonic: file is sealed")

// Options configures a cluster.
type Options struct {
	// Nodes is the number of storage nodes. Must be >= Replication.
	Nodes int
	// Replication is the number of replicas per chunk. The paper uses
	// triplicate replication for durability (§7.1).
	Replication int
	// ChunkSize is the chunk size in bytes; defaults to DefaultChunkSize.
	ChunkSize int64
	// Disk is the device model for every node; defaults to hw.HDD.
	Disk hw.DiskSpec
	// Retry governs replica failover and hedged reads when faults are
	// active; zero fields take defaults (see RetryPolicy).
	Retry RetryPolicy
}

func (o *Options) fill() {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.Replication == 0 {
		o.Replication = 3
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Disk.Name == "" {
		o.Disk = hw.HDD
	}
	o.Retry.fill(o.Replication)
}

// StorageNode is one disk-backed node in the cluster.
type StorageNode struct {
	ID   int
	Disk *hw.Disk

	mu     sync.Mutex
	chunks map[chunkKey][]byte
}

type chunkKey struct {
	path  string
	index int64
}

// Cluster is a set of storage nodes holding replicated, chunked,
// append-only files.
type Cluster struct {
	opts  Options
	clock *clock.Clock
	nodes []*StorageNode

	mu    sync.Mutex
	files map[string]*fileMeta

	// IOSizes records the size of every read I/O issued to any node,
	// the Table 6 measurement.
	IOSizes metrics.Histogram
	// ReadOps and ReadBytes aggregate the read load across nodes.
	ReadOps   metrics.Counter
	ReadBytes metrics.Counter

	// fmu guards the failure plane: the installed fault schedule, the
	// quarantined-replica set, per-node condemnation tallies, recovery
	// counters, and the latency EWMA feeding the hedged-read threshold.
	fmu         sync.Mutex
	schedule    *faults.Schedule
	quarantined map[replicaKey]bool
	condemned   map[int]int64
	counters    FaultCounters
	ewmaLatNs   float64
}

type fileMeta struct {
	mu     sync.Mutex
	size   int64
	sealed bool
	// replicas[i] lists the node IDs holding chunk i, and streams[i]
	// names it, "path#i": the key of its fault draws and of its disks'
	// sequential-read tracking, formatted once, when the chunk is placed.
	replicas [][]int
	streams  []string
	// tokens is the per-file idempotent-append ledger, populated only
	// while write faults are active: token -> how much of that token's
	// payload has durably landed. Cleared when the file seals.
	tokens map[string]*tokenState
}

// NewCluster creates a cluster with the given options.
func NewCluster(opts Options) (*Cluster, error) {
	opts.fill()
	if opts.Nodes < opts.Replication {
		return nil, fmt.Errorf("tectonic: %d nodes cannot hold %d replicas", opts.Nodes, opts.Replication)
	}
	c := &Cluster{opts: opts, clock: clock.New(), files: make(map[string]*fileMeta)}
	for i := 0; i < opts.Nodes; i++ {
		c.nodes = append(c.nodes, &StorageNode{
			ID:     i,
			Disk:   hw.NewDisk(opts.Disk, c.clock),
			chunks: make(map[chunkKey][]byte),
		})
	}
	return c, nil
}

// Clock returns the cluster's virtual clock.
func (c *Cluster) Clock() *clock.Clock { return c.clock }

// Replication returns the configured replicas per chunk.
func (c *Cluster) Replication() int { return c.opts.Replication }

// Nodes returns the storage nodes (for inspection in experiments).
func (c *Cluster) Nodes() []*StorageNode { return c.nodes }

// rendezvousOrder ranks every node for a chunk by rendezvous hashing,
// best-first, so placement is stable across runs.
func (c *Cluster) rendezvousOrder(path string, chunk int64) []int {
	type scored struct {
		node  int
		score uint64
	}
	scoredNodes := make([]scored, len(c.nodes))
	for i := range c.nodes {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d/%d", path, chunk, i)
		scoredNodes[i] = scored{node: i, score: h.Sum64()}
	}
	sort.Slice(scoredNodes, func(i, j int) bool { return scoredNodes[i].score > scoredNodes[j].score })
	out := make([]int, len(scoredNodes))
	for i := range out {
		out[i] = scoredNodes[i].node
	}
	return out
}

// placement deterministically picks the replica nodes for a chunk: the
// rendezvous prefix.
func (c *Cluster) placement(path string, chunk int64) []int {
	return c.rendezvousOrder(path, chunk)[:c.opts.Replication]
}

// Create creates an empty append-only file. Creating an existing path is
// an error.
func (c *Cluster) Create(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; ok {
		return fmt.Errorf("tectonic: file %q already exists", path)
	}
	c.files[path] = &fileMeta{}
	return nil
}

func (c *Cluster) lookup(path string) (*fileMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f, nil
}

// Append appends data to the file, writing through to all chunk
// replicas: a single attempt evaluated against the fault plane, with no
// token. Callers that need retries with torn-ack deduplication use
// AppendToken.
func (c *Cluster) Append(path string, data []byte) error {
	f, err := c.lookup(path)
	if err != nil {
		return err
	}
	sched, active := c.faultPlane()
	var trace WriteTrace
	return c.appendAttempt(f, path, "", data, sched, active, 0, &trace)
}

// Seal marks the file immutable. Reads are allowed before sealing (the
// paper's files are append-only but readable while being written). When
// a SealFlaky window is active, seal attempts fail with a seeded
// probability and retry internally up to the attempt budget; an
// exhausted budget surfaces a retryable error with the file unsealed.
func (c *Cluster) Seal(path string) error {
	f, err := c.lookup(path)
	if err != nil {
		return err
	}
	if sched := c.FaultSchedule(); sched != nil {
		now := c.clock.Now()
		pol := c.opts.Retry
		sealed := false
		for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
			if !sched.SealFires(path, now, attempt) {
				sealed = true
				break
			}
			c.fmu.Lock()
			c.counters.SealRetries++
			c.fmu.Unlock()
		}
		if !sealed {
			return fmt.Errorf("%w: seal of %s gave up after %d attempts", ErrNodeIO, path, pol.MaxAttempts)
		}
	}
	f.mu.Lock()
	f.sealed = true
	f.tokens = nil
	f.mu.Unlock()
	return nil
}

// Size reports the file's current length.
func (c *Cluster) Size(path string) (int64, error) {
	f, err := c.lookup(path)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size, nil
}

// Exists reports whether the path exists.
func (c *Cluster) Exists(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.files[path]
	return ok
}

// List returns all paths with the given prefix, sorted.
func (c *Cluster) List(prefix string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for p := range c.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and reclaims its chunks on all replicas. Each
// replica's disk forgets the chunk's sequential-read state, so a file
// re-created at the path starts cold.
func (c *Cluster) Delete(path string) error {
	c.mu.Lock()
	f, ok := c.files[path]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(c.files, path)
	c.mu.Unlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	for idx, nodes := range f.replicas {
		for _, nodeID := range nodes {
			node := c.nodes[nodeID]
			node.mu.Lock()
			delete(node.chunks, chunkKey{path: path, index: int64(idx)})
			node.mu.Unlock()
			node.Disk.Forget(f.streams[idx])
		}
	}
	return nil
}

// ReadAt reads length bytes at offset from the file, routing each
// chunk-level I/O to the healthiest replica (the primary when nothing is
// scheduled or quarantined) and accounting device time. It returns the
// bytes and the simulated completion time of the slowest I/O involved.
// Failed attempts fail over across replicas with capped jittered backoff
// and stragglers are hedged; see ReadAtTraced for the recovery
// accounting.
func (c *Cluster) ReadAt(path string, offset, length int64) ([]byte, time.Duration, error) {
	out, _, t, _, err := c.readRange(path, offset, length, false, nil)
	return out, t, err
}

// ReadAll reads the whole file.
func (c *Cluster) ReadAll(path string) ([]byte, time.Duration, error) {
	size, err := c.Size(path)
	if err != nil {
		return nil, 0, err
	}
	return c.ReadAt(path, 0, size)
}

// TotalStoredBytes reports the physical bytes stored across all replicas.
func (c *Cluster) TotalStoredBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, buf := range n.chunks {
			total += int64(len(buf))
		}
		n.mu.Unlock()
	}
	return total
}

// LogicalBytes reports the logical (pre-replication) bytes stored.
func (c *Cluster) LogicalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, f := range c.files {
		f.mu.Lock()
		total += f.size
		f.mu.Unlock()
	}
	return total
}

// AggregateDiskBusy reports the total device-busy time across nodes.
func (c *Cluster) AggregateDiskBusy() time.Duration {
	var total time.Duration
	for _, n := range c.nodes {
		total += n.Disk.BusyTotal()
	}
	return total
}

// ResetIOAccounting clears per-read metrics for a fresh measurement
// window (the stored data is untouched).
func (c *Cluster) ResetIOAccounting() {
	c.IOSizes = metrics.Histogram{}
	c.ReadOps = metrics.Counter{}
	c.ReadBytes = metrics.Counter{}
	for _, n := range c.nodes {
		n.Disk.ResetAccounting()
	}
}
