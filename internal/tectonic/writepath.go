package tectonic

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"dsi/internal/tectonic/faults"
)

// WriteTrace accounts the recovery work behind one tokened append:
// attempts made, retries beyond the first, dedup hits against already
// landed bytes, torn-ack repairs that resumed a partial payload, and
// the virtual backoff paid between attempts.
type WriteTrace struct {
	Attempts    int64
	Retries     int64
	Dedups      int64
	TornRepairs int64
	Backoff     time.Duration
}

// Merge folds another trace into t.
func (t *WriteTrace) Merge(o WriteTrace) {
	t.Attempts += o.Attempts
	t.Retries += o.Retries
	t.Dedups += o.Dedups
	t.TornRepairs += o.TornRepairs
	t.Backoff += o.Backoff
}

// tokenState is one entry of a file's idempotent-append ledger: how much
// of the token's payload has durably landed. applied == total means the
// append succeeded even if its ack never reached the writer.
type tokenState struct {
	applied int64
	total   int64
}

// AppendToken appends data to the file idempotently under the given
// write token, retrying with capped jittered backoff (virtual time —
// nothing sleeps) while the error taxonomy says the failure is worth
// retrying. The token makes retries safe against torn acks: a retry
// whose previous attempt actually landed deduplicates against the
// ledger instead of double-appending, and a partially landed payload is
// resumed from the first missing byte. Tokens must be unique per logical
// append (e.g. "path@offset") and are only tracked while the fault plane
// is active: with nothing scheduled or condemned no attempt can tear, so
// the first one is final and no ledger is kept.
func (c *Cluster) AppendToken(path, token string, data []byte) (WriteTrace, error) {
	var trace WriteTrace
	f, err := c.lookup(path)
	if err != nil {
		return trace, err
	}
	sched, active := c.faultPlane()
	pol := c.opts.Retry
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			trace.Retries++
			c.fmu.Lock()
			c.counters.AppendRetries++
			c.fmu.Unlock()
			step := pol.backoff(attempt)
			trace.Backoff += step + sched.Jitter(step/2, 0, path, int64(len(data)), attempt)
		}
		trace.Attempts++
		err := c.appendAttempt(f, path, token, data, sched, active, attempt, &trace)
		if err == nil {
			return trace, nil
		}
		if !IsRetryable(err) {
			return trace, err
		}
		lastErr = err
	}
	return trace, fmt.Errorf("%w: append to %s gave up after %d attempts: %w",
		ErrAllReplicas, path, pol.MaxAttempts, lastErr)
}

// appendAttempt is the only code that appends to a chunk: one append
// attempt evaluated against the fault plane. While the plane is active a
// token gets a ledger entry and new chunks are placed by health; with
// nothing scheduled or condemned no attempt can tear, so no ledger is
// kept and placement is the rendezvous prefix. Each chunk fragment's fate
// is decided across ALL its replicas before any replica is touched,
// preserving the lockstep invariant: a fragment lands on every replica or
// on none. A WriteFailing or Down verdict fails the fragment cleanly; a
// WriteTorn verdict lands the fragment everywhere and then loses the ack
// (ErrTornAck) — the case only a token recovers from without duplicating.
func (c *Cluster) appendAttempt(f *fileMeta, path, token string, data []byte, sched *faults.Schedule, active bool, attempt int, trace *WriteTrace) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return fmt.Errorf("%w: %s", ErrClosed, path)
	}
	total := int64(len(data))
	var ts *tokenState
	if active && token != "" {
		if f.tokens == nil {
			f.tokens = make(map[string]*tokenState)
		}
		ts = f.tokens[token]
		if ts == nil {
			ts = &tokenState{total: total}
			f.tokens[token] = ts
		} else {
			if ts.total != total {
				return fmt.Errorf("tectonic: write token %q reused with a different payload (%d bytes, ledger has %d) on %s",
					token, total, ts.total, path)
			}
			if ts.applied == ts.total {
				trace.Dedups++
				c.fmu.Lock()
				c.counters.AppendDedups++
				c.fmu.Unlock()
				return nil
			}
			if ts.applied > 0 {
				trace.TornRepairs++
				c.fmu.Lock()
				c.counters.TornRepairs++
				c.fmu.Unlock()
			}
		}
		data = data[ts.applied:]
	}
	now := c.clock.Now()
	cs := c.opts.ChunkSize
	for len(data) > 0 {
		chunkIdx := f.size / cs
		within := f.size % cs
		n := min(cs-within, int64(len(data)))
		if chunkIdx == int64(len(f.replicas)) {
			if active {
				f.replicas = append(f.replicas, c.placementHealthy(path, chunkIdx, now, sched))
			} else {
				f.replicas = append(f.replicas, c.placement(path, chunkIdx))
			}
			f.streams = append(f.streams, path+"#"+strconv.FormatInt(chunkIdx, 10))
		}
		torn := false
		for _, nodeID := range f.replicas[chunkIdx] {
			st, win := sched.WriteState(nodeID, now)
			switch st {
			case faults.Down:
				return fmt.Errorf("%w: node %d writing %s chunk %d", ErrNodeDown, nodeID, path, chunkIdx)
			case faults.WriteFailing, faults.WriteTorn:
				if !sched.Fires(win.ErrProb, nodeID, f.streams[chunkIdx], within, attempt) {
					break
				}
				if st == faults.WriteFailing {
					return fmt.Errorf("%w: node %d writing %s chunk %d (attempt %d)", ErrNodeIO, nodeID, path, chunkIdx, attempt)
				}
				torn = true
			}
		}
		for _, nodeID := range f.replicas[chunkIdx] {
			node := c.nodes[nodeID]
			key := chunkKey{path: path, index: chunkIdx}
			node.mu.Lock()
			buf := node.chunks[key]
			if int64(len(buf)) != within {
				// Replicas advance in lockstep under f.mu; divergence is a bug.
				node.mu.Unlock()
				panic(fmt.Sprintf("tectonic: replica divergence at %s chunk %d: len %d want %d",
					path, chunkIdx, len(buf), within))
			}
			node.chunks[key] = appendChunk(buf, data[:n], cs)
			node.mu.Unlock()
		}
		f.size += n
		if ts != nil {
			ts.applied += n
		}
		data = data[n:]
		if torn {
			c.fmu.Lock()
			c.counters.TornAcks++
			c.fmu.Unlock()
			return fmt.Errorf("%w: %s chunk %d (attempt %d)", ErrTornAck, path, chunkIdx, attempt)
		}
	}
	return nil
}

// minChunkBuf is the smallest chunk buffer appendChunk allocates. A file
// that starts with small appends (a DWRF header, then small streams)
// grows from it along minChunkBuf·2^k, so what its write allocates is a
// function of its length. Started from its first append's size, the
// doublings would fall wherever that append and the next few happened to
// put them, and a file a few bytes longer than a step would copy itself
// once more: one dataset would write for 2x its size, the next for 4x.
const minChunkBuf = 4 << 10

// appendChunk appends data to a chunk buffer of at most chunkSize bytes.
// A buffer that must grow at least doubles, starting at minChunkBuf and
// capped at chunkSize. Append alone grows a large slice by a quarter, so
// a chunk filled in small appends would be copied three times as often
// and allocate about five times its final size instead of two. Spare
// capacity is safe because serveChunk lends capacity-clamped views: no
// borrower sees the bytes later appends write there.
func appendChunk(buf, data []byte, chunkSize int64) []byte {
	if need := len(buf) + len(data); need > cap(buf) {
		grown := make([]byte, len(buf), min(max(2*cap(buf), need, minChunkBuf), int(chunkSize)))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, data...)
}

// placementHealthy picks a new chunk's replicas with health-ranked
// placement: the full rendezvous order is re-scored by each node's
// write-path state and condemnation tally (replicas quarantined by
// checksum verification), and the best Replication nodes win. Ties
// preserve rendezvous order, so a fully healthy cluster places exactly
// like the legacy path; a storm where every node is equally sick does
// too — avoidance only kicks in when some nodes are genuinely worse.
func (c *Cluster) placementHealthy(path string, chunk int64, now time.Duration, sched *faults.Schedule) []int {
	order := c.rendezvousOrder(path, chunk)
	r := c.opts.Replication
	c.fmu.Lock()
	condemned := make(map[int]bool, len(c.condemned))
	for n, cnt := range c.condemned {
		if cnt > 0 {
			condemned[n] = true
		}
	}
	c.fmu.Unlock()

	type cand struct {
		node, score int
	}
	cands := make([]cand, len(order))
	for i, n := range order {
		score := 0
		switch st, _ := sched.WriteState(n, now); st {
		case faults.Down:
			score = 8
		case faults.WriteFailing, faults.WriteTorn:
			score = 2
		}
		if score < 8 && condemned[n] {
			score += 2
		}
		cands[i] = cand{node: n, score: score}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	out := make([]int, r)
	avoided := false
	for i := range out {
		out[i] = cands[i].node
		if out[i] != order[i] {
			avoided = true
		}
	}
	if avoided {
		c.fmu.Lock()
		c.counters.PlacementAvoids++
		c.fmu.Unlock()
	}
	return out
}
