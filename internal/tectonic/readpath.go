package tectonic

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dsi/internal/tectonic/faults"
)

// Typed storage errors. The retry layers above (dwrf stripe fetch, dpp
// split requeue, etl partition re-produce) classify on these with
// errors.Is instead of string matching. The canonical sentinels live in
// the faults package so logdevice shares the same taxonomy; these
// aliases keep tectonic's historical names working.
var (
	// ErrNodeDown marks an I/O addressed to a node that is offline.
	ErrNodeDown = faults.ErrNodeDown
	// ErrNodeIO marks a transient per-I/O failure on a flaky node.
	ErrNodeIO = faults.ErrNodeIO
	// ErrCorrupt marks data that failed checksum verification. The
	// cluster itself never detects corruption (it is silent by nature);
	// dwrf wraps this sentinel when StripeMeta.ContentHash disagrees.
	ErrCorrupt = faults.ErrCorrupt
	// ErrAllReplicas marks a chunk I/O that exhausted its attempt
	// budget across every replica.
	ErrAllReplicas = faults.ErrAllReplicas
	// ErrTornAck marks an append whose bytes landed but whose ack was
	// lost; a tokened retry deduplicates against the landed bytes.
	ErrTornAck = faults.ErrTornAck
	// ErrOutOfRange marks a read outside the file's current extent.
	ErrOutOfRange = errors.New("tectonic: read out of range")
)

// IsRetryable reports whether a storage error is worth retrying — on
// another replica, after a backoff, or by requeueing the split to a
// different worker. See faults.IsRetryable for the taxonomy.
func IsRetryable(err error) bool { return faults.IsRetryable(err) }

// RetryPolicy governs the self-healing storage path: how many replica
// attempts a chunk I/O gets, and whether a hedged second read may fire
// against another replica. Between attempts each I/O pays a capped
// exponential backoff with seeded jitter; backoff and hedge delays are
// virtual-clock time folded into the I/O's completion time — nothing
// sleeps.
type RetryPolicy struct {
	// MaxAttempts bounds chunk I/O attempts across replicas; defaults
	// to 2 x Replication.
	MaxAttempts int
	// DisableHedge turns hedged reads off.
	DisableHedge bool
}

const (
	// backoffBase is the first retry's backoff; it doubles per attempt
	// up to backoffCap, plus jitter in [0, step/2).
	backoffBase = 500 * time.Microsecond
	backoffCap  = 16 * time.Millisecond
	// A hedged read fires when a read's latency exceeds hedgeMultiple x
	// the EWMA of recent read latencies, floored at hedgeMin so
	// cold-start EWMA noise can't hedge every read.
	hedgeMultiple = 3
	hedgeMin      = 2 * time.Millisecond
)

func (p *RetryPolicy) fill(replication int) {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 2 * replication
	}
}

// backoff is the capped exponential step paid before retry number
// attempt (1 is the first retry), before jitter.
func (RetryPolicy) backoff(attempt int) time.Duration {
	step := backoffBase << (attempt - 1)
	if step > backoffCap || step <= 0 {
		step = backoffCap
	}
	return step
}

// ReplicaServe records which node served one chunk-level I/O — the
// provenance a checksum-verifying reader needs to quarantine the right
// replica when the bytes turn out bad.
type ReplicaServe struct {
	Chunk int64
	Node  int
}

// ReadTrace accounts the recovery work behind one read: retries beyond
// the first attempt, failovers away from the primary replica, hedged
// reads fired and won, virtual backoff paid, and the replica that
// served each chunk.
type ReadTrace struct {
	Retries   int64
	Failovers int64
	Hedges    int64
	HedgeWins int64
	Backoff   time.Duration
	Served    []ReplicaServe
}

// FaultCounters is a snapshot of the cluster's cumulative recovery
// accounting, read side and write side.
type FaultCounters struct {
	Retries       int64
	Failovers     int64
	Hedges        int64
	HedgeWins     int64
	CorruptServes int64
	Quarantines   int64

	// Write-side recovery accounting.
	AppendRetries   int64 // retried append attempts beyond the first
	AppendDedups    int64 // retries that found their token fully landed (torn ack)
	TornAcks        int64 // appends that landed but lost their ack
	TornRepairs     int64 // retries that resumed a partially landed token
	SealRetries     int64 // failed seal attempts absorbed by internal retry
	PlacementAvoids int64 // chunk placements steered away from unhealthy/condemned nodes
}

type replicaKey struct {
	path  string
	chunk int64
	node  int
}

// SetFaultSchedule installs (or, with nil, removes) the fault schedule
// consulted by every subsequent read, append and seal. With no schedule
// and no quarantined replica every chunk is served by its primary:
// nothing is ranked, filtered or hedged.
func (c *Cluster) SetFaultSchedule(s *faults.Schedule) {
	c.fmu.Lock()
	c.schedule = s
	c.fmu.Unlock()
}

// FaultSchedule returns the installed schedule (nil when fault-free).
func (c *Cluster) FaultSchedule() *faults.Schedule {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.schedule
}

// Quarantine marks one replica of one chunk as untrusted — subsequent
// reads of that chunk rank the node last and only use it when every
// replica is quarantined. Callers that verify checksums (dwrf) invoke
// this when bytes from a node disagree with the recorded hash. Reports
// whether the replica was newly quarantined.
func (c *Cluster) Quarantine(path string, chunk int64, node int) bool {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if c.quarantined == nil {
		c.quarantined = make(map[replicaKey]bool)
	}
	k := replicaKey{path: path, chunk: chunk, node: node}
	if c.quarantined[k] {
		return false
	}
	c.quarantined[k] = true
	if c.condemned == nil {
		c.condemned = make(map[int]int64)
	}
	c.condemned[node]++
	c.counters.Quarantines++
	return true
}

// Quarantined reports whether the (path, chunk, node) replica is
// quarantined.
func (c *Cluster) Quarantined(path string, chunk int64, node int) bool {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.quarantined[replicaKey{path: path, chunk: chunk, node: node}]
}

// ResetFaultPlane clears the quarantined-replica set, the per-node
// condemnation tallies, the recovery counters, and the hedging latency
// EWMA, leaving the installed fault schedule in place. Chaos experiments
// use it to take fault-free and degraded measurements of the same
// cluster from a clean slate.
func (c *Cluster) ResetFaultPlane() {
	c.fmu.Lock()
	c.quarantined = nil
	c.condemned = nil
	c.counters = FaultCounters{}
	c.ewmaLatNs = 0
	c.fmu.Unlock()
}

// FaultCounters snapshots the cumulative recovery accounting.
func (c *Cluster) FaultCounters() FaultCounters {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.counters
}

// faultPlane is the one locked snapshot a read or append takes of the
// failure plane: the installed schedule, and whether the recovery
// machinery (replica ranking, the clean-replica filter, hedging, the
// latency EWMA; health-ranked placement and the token ledger) has
// anything to act on — a schedule, or a replica Quarantine condemned.
func (c *Cluster) faultPlane() (sched *faults.Schedule, active bool) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.schedule, c.schedule != nil || len(c.condemned) > 0
}

func (c *Cluster) hedgeThreshold() time.Duration {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return max(time.Duration(hedgeMultiple*c.ewmaLatNs), hedgeMin)
}

func (c *Cluster) observeLatency(lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	c.fmu.Lock()
	if c.ewmaLatNs == 0 {
		c.ewmaLatNs = float64(lat)
	} else {
		c.ewmaLatNs = 0.8*c.ewmaLatNs + 0.2*float64(lat)
	}
	c.fmu.Unlock()
}

// rankReplicas orders a chunk's replicas healthiest-first: healthy,
// then slow, then flaky, with quarantined replicas after everything
// except down nodes. Corrupting nodes rank as healthy on purpose —
// corruption is silent, and only a checksum-driven Quarantine may
// demote them. Ties preserve placement order so the fault-free ranking
// equals the legacy primary-first order.
func (c *Cluster) rankReplicas(path string, chunk int64, replicas []int, now time.Duration, sched *faults.Schedule) []int {
	type cand struct {
		node, idx, score int
	}
	cands := make([]cand, len(replicas))
	for i, n := range replicas {
		score := 0
		switch st, _ := sched.NodeState(n, now); st {
		case faults.Slow:
			score = 1
		case faults.Flaky:
			score = 2
		case faults.Down:
			score = 8
		}
		if score < 8 && c.Quarantined(path, chunk, n) {
			score += 4
		}
		cands[i] = cand{node: n, idx: i, score: score}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	out := make([]int, len(cands))
	for i, cd := range cands {
		out[i] = cd.node
	}
	return out
}

// serveChunk reads [within, within+n) of one chunk from one node,
// applying the node's fault state: corrupting nodes return a private
// copy with a deterministic bit flipped, slow nodes pay a multiplied
// service latency. Every other serve lends out a capacity-clamped view
// of the chunk buffer (lent=true), which stays valid outside the node
// lock because chunks are append-only: new bytes land beyond the length
// observed here, and a growth reallocation leaves the old array intact.
// Returns the bytes, whether they alias the chunk buffer, and the
// absolute virtual completion time.
func (c *Cluster) serveChunk(nodeID int, stream, path string, chunkIdx, within, n int64, st faults.State, win faults.Window, sched *faults.Schedule) ([]byte, bool, time.Duration) {
	node := c.nodes[nodeID]
	node.mu.Lock()
	data := node.chunks[chunkKey{path: path, index: chunkIdx}][within : within+n : within+n]
	node.mu.Unlock()

	if st == faults.Corrupting {
		data = append(make([]byte, 0, n), data...)
		pos, mask := sched.CorruptBit(nodeID, stream, within, n)
		data[pos] ^= mask
		c.fmu.Lock()
		c.counters.CorruptServes++
		c.fmu.Unlock()
	}

	done := node.Disk.Read(stream, within, n)
	if st == faults.Slow && win.SlowFactor > 1 {
		done += time.Duration(float64(node.Disk.Spec.ServiceTime(n)) * (win.SlowFactor - 1))
	}
	c.IOSizes.Observe(float64(n))
	c.ReadOps.Inc()
	c.ReadBytes.Add(n)
	return data, st != faults.Corrupting, done
}

// readChunk is the cluster's one chunk read, recovering by construction:
// replicas are tried in order with capped exponential backoff and seeded
// jitter between attempts, and the recovery work lands in trace. With
// nothing scheduled or quarantined (active=false) the order is the
// placement order, so the primary serves on the first attempt; otherwise
// replicas are health-ranked, quarantined ones leave the rotation, and a
// hedged second read fires when the chosen replica's latency exceeds the
// adaptive threshold. Backoff and hedge delay are virtual time, folded
// into the returned completion time. stream is the chunk's name, from
// fileMeta.streams.
func (c *Cluster) readChunk(path, stream string, replicas []int, chunkIdx, within, n int64, sched *faults.Schedule, active bool, trace *ReadTrace) ([]byte, bool, time.Duration, error) {
	now := c.clock.Now()
	order := replicas
	if active {
		order = c.rankReplicas(path, chunkIdx, replicas, now, sched)
		// Quarantined replicas leave the rotation entirely while any clean
		// replica remains: a checksum-condemned node must not get to
		// "succeed" with its rotted bytes just because a clean replica threw
		// a transient error on one attempt. Only when every replica is
		// quarantined do the condemned ones come back as a last resort.
		clean := order[:0:0]
		for _, n := range order {
			if !c.Quarantined(path, chunkIdx, n) {
				clean = append(clean, n)
			}
		}
		if len(clean) > 0 {
			order = clean
		}
	}
	pol := c.opts.Retry

	var backoff time.Duration
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		nodeID := order[attempt%len(order)]
		if attempt > 0 {
			trace.Retries++
			c.fmu.Lock()
			c.counters.Retries++
			c.fmu.Unlock()
			step := pol.backoff(attempt)
			backoff += step + sched.Jitter(step/2, nodeID, stream, within, attempt)
		}
		st, win := sched.NodeState(nodeID, now)
		if st == faults.Down {
			lastErr = fmt.Errorf("%w: node %d serving %s chunk %d", ErrNodeDown, nodeID, path, chunkIdx)
			continue
		}
		if st == faults.Flaky && sched.Fires(win.ErrProb, nodeID, stream, within, attempt) {
			lastErr = fmt.Errorf("%w: node %d serving %s chunk %d (attempt %d)", ErrNodeIO, nodeID, path, chunkIdx, attempt)
			continue
		}
		if nodeID != replicas[0] {
			trace.Failovers++
			c.fmu.Lock()
			c.counters.Failovers++
			c.fmu.Unlock()
		}
		data, lent, done := c.serveChunk(nodeID, stream, path, chunkIdx, within, n, st, win, sched)
		served := nodeID

		if active {
			// Hedge: if the chosen replica is predicted to straggle past
			// the adaptive threshold, fire a second read at the next-ranked
			// healthy replica after the threshold delay; first completion
			// wins, the loser's device time stays accounted.
			lat := done - now
			if thr := c.hedgeThreshold(); !pol.DisableHedge && sched != nil && lat > thr {
				if alt, ok := altReplica(order, nodeID, now, sched); ok {
					trace.Hedges++
					altSt, altWin := sched.NodeState(alt, now)
					data2, lent2, done2 := c.serveChunk(alt, stream, path, chunkIdx, within, n, altSt, altWin, sched)
					hedgeDone := done2 + thr
					won := hedgeDone < done
					c.fmu.Lock()
					c.counters.Hedges++
					if won {
						c.counters.HedgeWins++
					}
					c.fmu.Unlock()
					if won {
						trace.HedgeWins++
						data, lent, done, served = data2, lent2, hedgeDone, alt
					}
				}
			}
			c.observeLatency(done - now)
		}

		trace.Backoff += backoff
		trace.Served = append(trace.Served, ReplicaServe{Chunk: chunkIdx, Node: served})
		return data, lent, done + backoff, nil
	}
	trace.Backoff += backoff
	return nil, false, 0, fmt.Errorf("%w: %s chunk %d gave up after %d attempts: %w",
		ErrAllReplicas, path, chunkIdx, pol.MaxAttempts, lastErr)
}

// altReplica picks the hedge target: the first ranked replica other
// than primary that is not down.
func altReplica(order []int, primary int, now time.Duration, sched *faults.Schedule) (int, bool) {
	for _, n := range order {
		if n == primary {
			continue
		}
		if st, _ := sched.NodeState(n, now); st != faults.Down {
			return n, true
		}
	}
	return 0, false
}

// readRange is the cluster's one range read: it walks the chunks under
// [offset, offset+length), serves each through readChunk against one
// snapshot of the fault plane, and assembles the bytes into a fresh
// buffer — unless borrow is set and the range lies within a single
// chunk, when the served view itself is returned (borrowed=true if it
// aliases the chunk buffer; a corrupting node only ever hands out a
// private copy). Device time and I/O accounting do not depend on borrow.
func (c *Cluster) readRange(path string, offset, length int64, borrow bool) ([]byte, bool, time.Duration, ReadTrace, error) {
	var trace ReadTrace
	if offset < 0 || length < 0 {
		return nil, false, 0, trace, fmt.Errorf("%w: negative read parameters [%d,%d) of %s", ErrOutOfRange, offset, offset+length, path)
	}
	f, err := c.lookup(path)
	if err != nil {
		return nil, false, 0, trace, err
	}
	f.mu.Lock()
	size := f.size
	replicas, streams := f.replicas, f.streams
	f.mu.Unlock()

	if offset+length > size {
		return nil, false, 0, trace, fmt.Errorf("%w: read [%d,%d) beyond size %d of %s", ErrOutOfRange, offset, offset+length, size, path)
	}

	sched, active := c.faultPlane()
	cs := c.opts.ChunkSize
	borrow = borrow && length > 0 && offset/cs == (offset+length-1)/cs
	var out []byte
	if !borrow {
		out = make([]byte, 0, length)
	}
	var done time.Duration
	for length > 0 {
		chunkIdx := offset / cs
		within := offset % cs
		n := min(cs-within, length)
		data, lent, t, err := c.readChunk(path, streams[chunkIdx], replicas[chunkIdx], chunkIdx, within, n, sched, active, &trace)
		if err != nil {
			return nil, false, 0, trace, err
		}
		if borrow {
			return data, lent, t, trace, nil
		}
		out = append(out, data...)
		done = max(done, t)
		offset += n
		length -= n
	}
	return out, false, done, trace, nil
}

// ReadAtTraced is ReadAt returning, instead of the completion time, the
// recovery trace: which replica served each chunk, and how much
// retrying, failover, and hedging the read needed.
func (c *Cluster) ReadAtTraced(path string, offset, length int64) ([]byte, ReadTrace, error) {
	out, _, _, trace, err := c.readRange(path, offset, length, false)
	return out, trace, err
}

// ReadAtBorrowTraced is ReadAtTraced returning, when the range lies
// within a single memory-resident chunk, a slice that ALIASES the
// chunk's buffer instead of a copy (borrowed=true). The caller must
// treat a borrowed slice as read-only and not hold it across a Delete of
// the file. Ranges spanning chunk boundaries are copied
// (borrowed=false). Device-time and I/O accounting are identical to
// ReadAt, so storage metrics don't depend on which call served the read.
func (c *Cluster) ReadAtBorrowTraced(path string, offset, length int64) ([]byte, bool, ReadTrace, error) {
	out, borrowed, _, trace, err := c.readRange(path, offset, length, true)
	return out, borrowed, trace, err
}
