package tectonic

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsi/internal/tectonic/faults"
)

// faultFixture builds a cluster holding one sealed file and returns the
// replica set of its first chunk, so tests can aim fault windows at the
// nodes that actually hold the data.
func faultFixture(t *testing.T, opts Options) (*Cluster, []byte, []int) {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 6
	}
	if opts.Replication == 0 {
		opts.Replication = 3
	}
	if opts.ChunkSize == 0 {
		opts.ChunkSize = 1 << 16
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*opts.ChunkSize/2) // spans two chunks
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal("f"); err != nil {
		t.Fatal(err)
	}
	f, err := c.lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	return c, data, append([]int(nil), f.replicas[0]...)
}

func TestFaultDownFailsOver(t *testing.T) {
	c, data, reps := faultFixture(t, Options{})
	c.SetFaultSchedule(faults.NewSchedule(1).Down(reps[0], 0, 0))

	got, trace, err := c.ReadAtTraced("f", 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong bytes")
	}
	for _, sv := range trace.Served {
		if sv.Node == reps[0] {
			t.Fatalf("chunk %d served by down node %d", sv.Chunk, sv.Node)
		}
	}
	// The primary is ranked last, so the healthy replica serves without
	// burning a retry; the failover must still be accounted.
	if trace.Failovers == 0 {
		t.Fatal("no failover recorded despite down primary")
	}
	if fc := c.FaultCounters(); fc.Failovers == 0 {
		t.Fatalf("cluster counters missed the failover: %+v", fc)
	}
}

func TestFaultFlakyRetriesThenSucceeds(t *testing.T) {
	// Every node flaky at p=0.5: ranking cannot route around the fault,
	// so some first attempts fail and the backoff/retry path must carry
	// the read. A generous attempt budget makes full exhaustion
	// (0.5^12 per chunk) effectively impossible at any seed.
	c, data, _ := faultFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 12}})
	sched := faults.NewSchedule(7)
	for _, n := range c.Nodes() {
		sched.Flaky(n.ID, 0, 0, 0.5)
	}
	c.SetFaultSchedule(sched)

	var trace ReadTrace
	step := c.opts.ChunkSize / 4
	for off := int64(0); off < int64(len(data)); off += step {
		n := step
		if off+n > int64(len(data)) {
			n = int64(len(data)) - off
		}
		got, tr, err := c.ReadAtTraced("f", off, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("read [%d,%d) returned wrong bytes", off, off+n)
		}
		trace.Retries += tr.Retries
		trace.Backoff += tr.Backoff
	}
	if trace.Retries == 0 {
		t.Fatal("no retries recorded under a fully flaky cluster")
	}
	if trace.Backoff == 0 {
		t.Fatal("retries recorded but no virtual backoff paid")
	}
	if fc := c.FaultCounters(); fc.Retries != trace.Retries {
		t.Fatalf("cluster retries %d, trace retries %d", fc.Retries, trace.Retries)
	}
}

func TestFaultSlowTriggersHedge(t *testing.T) {
	// Primary replica brutally slow, the other replicas mildly slow: all
	// rank equal (slow), so placement order keeps the straggler first,
	// its latency blows through the hedge threshold, and the hedged read
	// against the next replica wins.
	c, data, reps := faultFixture(t, Options{})
	sched := faults.NewSchedule(3).Slow(reps[0], 0, 0, 64)
	for _, n := range reps[1:] {
		sched.Slow(n, 0, 0, 1.01)
	}
	c.SetFaultSchedule(sched)

	got, trace, err := c.ReadAtTraced("f", 0, c.opts.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:c.opts.ChunkSize]) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if trace.Hedges == 0 {
		t.Fatal("no hedge fired against a 64x straggler")
	}
	if trace.HedgeWins == 0 {
		t.Fatal("hedge fired but the much faster replica did not win")
	}
	fc := c.FaultCounters()
	if fc.Hedges != trace.Hedges || fc.HedgeWins != trace.HedgeWins {
		t.Fatalf("cluster counters %+v disagree with trace %+v", fc, trace)
	}
}

func TestFaultAllDownExhaustsReplicas(t *testing.T) {
	c, data, _ := faultFixture(t, Options{})
	sched := faults.NewSchedule(5)
	for _, n := range c.Nodes() {
		sched.Down(n.ID, 0, 0)
	}
	c.SetFaultSchedule(sched)

	_, _, err := c.ReadAtTraced("f", 0, int64(len(data)))
	if err == nil {
		t.Fatal("read succeeded with every node down")
	}
	if !errors.Is(err, ErrAllReplicas) {
		t.Fatalf("error %v does not wrap ErrAllReplicas", err)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("error %v does not carry the last per-node cause", err)
	}
	if !IsRetryable(err) {
		t.Fatal("replica exhaustion must stay retryable (nodes recover)")
	}
}

func TestQuarantineDemotesReplica(t *testing.T) {
	c, data, reps := faultFixture(t, Options{})
	if !c.Quarantine("f", 0, reps[0]) {
		t.Fatal("first quarantine not reported as new")
	}
	if c.Quarantine("f", 0, reps[0]) {
		t.Fatal("second quarantine of the same replica reported as new")
	}
	if !c.Quarantined("f", 0, reps[0]) {
		t.Fatal("replica not recorded as quarantined")
	}

	got, trace, err := c.ReadAtTraced("f", 0, c.opts.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:c.opts.ChunkSize]) {
		t.Fatal("read after quarantine returned wrong bytes")
	}
	for _, sv := range trace.Served {
		if sv.Chunk == 0 && sv.Node == reps[0] {
			t.Fatalf("chunk 0 still served by quarantined node %d", sv.Node)
		}
	}
	if fc := c.FaultCounters(); fc.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", fc.Quarantines)
	}
}

func TestFaultFreeReadsStayClean(t *testing.T) {
	c, data, reps := faultFixture(t, Options{})
	got, trace, err := c.ReadAtTraced("f", 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fault-free read returned wrong bytes")
	}
	if trace.Retries != 0 || trace.Failovers != 0 || trace.Hedges != 0 || trace.Backoff != 0 {
		t.Fatalf("fault-free read paid recovery work: %+v", trace)
	}
	if len(trace.Served) == 0 || trace.Served[0].Node != reps[0] {
		t.Fatalf("fault-free read did not use the primary replica: %+v", trace.Served)
	}
	if fc := c.FaultCounters(); fc != (FaultCounters{}) {
		t.Fatalf("fault-free counters nonzero: %+v", fc)
	}

	// There is one read path, and with nothing scheduled it costs one
	// allocation, the trace's Served entry: the chunk's stream name is
	// formatted once, when the chunk is placed.
	const fastPathAllocs = 1
	allocs := testing.AllocsPerRun(100, func() {
		if _, borrowed, _, err := c.ReadAtBorrowTraced("f", 128, 4096, nil); err != nil || !borrowed {
			t.Fatalf("single-chunk read: borrowed=%v err=%v", borrowed, err)
		}
	})
	if allocs > fastPathAllocs {
		t.Fatalf("fault-free single-chunk borrowed read allocates %v times, want at most %d", allocs, fastPathAllocs)
	}
}

func TestFaultWindowExpiry(t *testing.T) {
	// A down window ends; once the virtual clock passes it, the primary
	// serves again.
	c, data, reps := faultFixture(t, Options{})
	c.SetFaultSchedule(faults.NewSchedule(9).Down(reps[0], 0, time.Millisecond))

	c.Clock().Advance(2 * time.Millisecond)
	got, trace, err := c.ReadAtTraced("f", 0, c.opts.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:c.opts.ChunkSize]) {
		t.Fatal("post-window read returned wrong bytes")
	}
	if len(trace.Served) == 0 || trace.Served[0].Node != reps[0] {
		t.Fatalf("primary not restored after its down window: %+v", trace.Served)
	}
}

func TestBorrowNeverAliasesCorruptingNode(t *testing.T) {
	// A corrupting node must never lend out its chunk buffer: the flip
	// happens in a private copy, so the stored bytes stay intact for the
	// replicas that will serve the retry.
	c, data, reps := faultFixture(t, Options{})
	sched := faults.NewSchedule(11)
	for _, n := range reps {
		sched.Corrupting(n, 0, 0)
	}
	c.SetFaultSchedule(sched)

	got, borrowed, _, err := c.ReadAtBorrowTraced("f", 0, c.opts.ChunkSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if borrowed {
		t.Fatal("corrupting node lent out its chunk buffer")
	}
	if bytes.Equal(got, data[:c.opts.ChunkSize]) {
		t.Fatal("corrupting node served clean bytes")
	}
	// Exactly one bit differs.
	diff := 0
	for i := range got {
		b := got[i] ^ data[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}

	// The stored replica is unharmed: healthy reads return clean bytes.
	c.SetFaultSchedule(nil)
	clean, _, err := c.ReadAt("f", 0, c.opts.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, data[:c.opts.ChunkSize]) {
		t.Fatal("stored chunk was mutated by the corrupting serve")
	}
}
