package tectonic

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dsi/internal/tectonic/faults"
)

// writeFixture builds an empty unsealed file on a small-chunk cluster.
func writeFixture(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 6
	}
	if opts.Replication == 0 {
		opts.Replication = 3
	}
	if opts.ChunkSize == 0 {
		opts.ChunkSize = 1 << 12
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("w"); err != nil {
		t.Fatal(err)
	}
	return c
}

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	return data
}

func readBack(t *testing.T, c *Cluster, path string) []byte {
	t.Helper()
	got, _, err := c.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWriteFaultFlakyAppendRetries(t *testing.T) {
	// Every node write-flaky: placement cannot route around the fault,
	// so the capped-backoff retry loop must carry the append. A fragment
	// needs all three replicas to pass their draw, so keep p moderate
	// and the attempt budget generous.
	c := writeFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 32}})
	sched := faults.NewSchedule(7)
	for n := 0; n < 6; n++ {
		sched.FailWrites(n, 0, 0, 0.25)
	}
	c.SetFaultSchedule(sched)

	data := payload(3 << 12) // three chunks
	trace, err := c.AppendToken("w", "w@0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBack(t, c, "w"), data) {
		t.Fatal("retried append stored wrong bytes")
	}
	if trace.Retries == 0 || trace.Backoff == 0 {
		t.Fatalf("append under cluster-wide write flake needed no retries: %+v", trace)
	}
	if fc := c.FaultCounters(); fc.AppendRetries == 0 {
		t.Fatalf("cluster counters missed the append retries: %+v", fc)
	}
}

func TestWriteFaultTornAckDeduplicates(t *testing.T) {
	// Torn acks at p=1 on every node: the first attempt lands the bytes
	// and loses the ack, and every retry must hit the token ledger's
	// dedup path instead of double-appending.
	c := writeFixture(t, Options{})
	sched := faults.NewSchedule(3)
	for n := 0; n < 6; n++ {
		sched.TornWrites(n, 0, 0, 1)
	}
	c.SetFaultSchedule(sched)

	data := payload(100)
	trace, err := c.AppendToken("w", "w@0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBack(t, c, "w"), data) {
		t.Fatal("torn-ack append stored wrong bytes (duplicate or loss)")
	}
	if trace.Dedups == 0 {
		t.Fatalf("retry of a landed append did not deduplicate: %+v", trace)
	}
	fc := c.FaultCounters()
	if fc.TornAcks == 0 || fc.AppendDedups == 0 {
		t.Fatalf("cluster counters missed the torn ack / dedup: %+v", fc)
	}

	// A second logical append with a fresh token must land after the
	// first, exactly once.
	more := payload(60)
	if _, err := c.AppendToken("w", "w@100", more); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), data...), more...)
	if !bytes.Equal(readBack(t, c, "w"), want) {
		t.Fatal("second tokened append corrupted the file")
	}
}

func TestWriteFaultTornRepairResumesPartialPayload(t *testing.T) {
	// A multi-chunk payload under probabilistic torn acks: some attempt
	// tears mid-payload, and the retry must resume from the first
	// missing byte — the file ends up byte-exact with no duplicate
	// fragments.
	c := writeFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 32}})
	sched := faults.NewSchedule(11)
	for n := 0; n < 6; n++ {
		sched.TornWrites(n, 0, 0, 0.6)
	}
	c.SetFaultSchedule(sched)

	data := payload(5 << 12) // five chunks: room to tear mid-payload
	trace, err := c.AppendToken("w", "w@0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBack(t, c, "w"), data) {
		t.Fatal("torn-repair append stored wrong bytes")
	}
	if trace.TornRepairs == 0 && trace.Dedups == 0 {
		t.Fatalf("no repair or dedup recorded under p=0.6 torn acks: %+v", trace)
	}
}

func TestWriteFaultDownNodePlacementAvoided(t *testing.T) {
	// One node down: every new chunk must be placed on the remaining
	// nodes, and at least one placement must differ from pure rendezvous
	// (the down node would otherwise appear in some replica set).
	c := writeFixture(t, Options{})
	const down = 2
	c.SetFaultSchedule(faults.NewSchedule(5).Down(down, 0, 0))

	data := payload(8 << 12)
	if _, err := c.AppendToken("w", "w@0", data); err != nil {
		t.Fatal(err)
	}
	f, err := c.lookup("w")
	if err != nil {
		t.Fatal(err)
	}
	for idx, reps := range f.replicas {
		for _, n := range reps {
			if n == down {
				t.Fatalf("chunk %d placed on down node %d", idx, down)
			}
		}
		if len(reps) != c.opts.Replication {
			t.Fatalf("chunk %d has %d replicas, want %d", idx, len(reps), c.opts.Replication)
		}
	}
	if fc := c.FaultCounters(); fc.PlacementAvoids == 0 {
		t.Fatalf("no placement avoidance recorded with a down node: %+v", fc)
	}
	if !bytes.Equal(readBack(t, c, "w"), data) {
		t.Fatal("health-placed append stored wrong bytes")
	}
}

func TestWriteFaultHealthyPlacementMatchesLegacy(t *testing.T) {
	// An installed but idle schedule must not move placement: layouts
	// stay deterministic across fault-free and fault-capable runs.
	plain := writeFixture(t, Options{})
	idle := writeFixture(t, Options{})
	idle.SetFaultSchedule(faults.NewSchedule(1))

	data := payload(6 << 12)
	if err := plain.Append("w", data); err != nil {
		t.Fatal(err)
	}
	if _, err := idle.AppendToken("w", "w@0", data); err != nil {
		t.Fatal(err)
	}
	fp, _ := plain.lookup("w")
	fi, _ := idle.lookup("w")
	if len(fp.replicas) != len(fi.replicas) {
		t.Fatalf("chunk counts diverge: %d vs %d", len(fp.replicas), len(fi.replicas))
	}
	for i := range fp.replicas {
		for j := range fp.replicas[i] {
			if fp.replicas[i][j] != fi.replicas[i][j] {
				t.Fatalf("chunk %d placement diverges: %v vs %v", i, fp.replicas[i], fi.replicas[i])
			}
		}
	}
	if fc := idle.FaultCounters(); fc.PlacementAvoids != 0 {
		t.Fatalf("idle schedule recorded placement avoids: %+v", fc)
	}
}

func TestWriteFaultSealRetriesThenSucceeds(t *testing.T) {
	c := writeFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 16}})
	if _, err := c.AppendToken("w", "w@0", payload(64)); err != nil {
		t.Fatal(err)
	}
	c.SetFaultSchedule(faults.NewSchedule(13).FailSeals(0, 0, 0.5))
	if err := c.Seal("w"); err != nil {
		t.Fatal(err)
	}
	if fc := c.FaultCounters(); fc.SealRetries == 0 {
		t.Fatalf("seal under p=0.5 flake needed no retries: %+v", fc)
	}
	if err := c.Append("w", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after seal: %v, want ErrClosed", err)
	}
}

func TestWriteFaultSealExhaustionIsRetryable(t *testing.T) {
	c := writeFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 4}})
	c.SetFaultSchedule(faults.NewSchedule(1).FailSeals(0, 0, 1))
	err := c.Seal("w")
	if err == nil {
		t.Fatal("seal succeeded under p=1 seal failure")
	}
	if !IsRetryable(err) {
		t.Fatalf("exhausted seal error not retryable: %v", err)
	}
	// The file must remain unsealed and appendable once the storm lifts.
	c.SetFaultSchedule(nil)
	if err := c.Append("w", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal("w"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFaultDownExhaustsBudget(t *testing.T) {
	// All nodes down: the retry budget exhausts and the error wraps both
	// the give-up sentinel and the underlying cause.
	c := writeFixture(t, Options{Retry: RetryPolicy{MaxAttempts: 3}})
	sched := faults.NewSchedule(1)
	for n := 0; n < 6; n++ {
		sched.Down(n, 0, 0)
	}
	c.SetFaultSchedule(sched)
	_, err := c.AppendToken("w", "w@0", payload(10))
	if !errors.Is(err, ErrAllReplicas) || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("exhausted append error = %v, want ErrAllReplicas wrapping ErrNodeDown", err)
	}
}

func TestWriteFaultTokenLedgerClearedOnSeal(t *testing.T) {
	c := writeFixture(t, Options{})
	sched := faults.NewSchedule(3)
	for n := 0; n < 6; n++ {
		sched.TornWrites(n, 0, 0, 1)
	}
	c.SetFaultSchedule(sched)
	if _, err := c.AppendToken("w", "w@0", payload(10)); err != nil {
		t.Fatal(err)
	}
	c.SetFaultSchedule(nil)
	if err := c.Seal("w"); err != nil {
		t.Fatal(err)
	}
	f, _ := c.lookup("w")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tokens != nil {
		t.Fatal("token ledger survived the seal")
	}
}

func TestWriteFaultFastPathSkipsLedger(t *testing.T) {
	// No schedule: AppendToken must take the legacy path and allocate no
	// token ledger.
	c := writeFixture(t, Options{})
	trace, err := c.AppendToken("w", "w@0", payload(100))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Attempts != 1 || trace.Retries != 0 {
		t.Fatalf("fault-free append took the slow path: %+v", trace)
	}
	// There is one append path, and with nothing scheduled it must cost
	// what the legacy append it replaced cost: nothing beyond growing the
	// replicas' chunk buffers (20 small appends into one chunk amortise
	// to under one allocation each), measured at the last commit that
	// had the legacy path. No ledger entry, no stream name.
	const legacyAllocs = 0
	data := payload(100)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.AppendToken("w", "w@0", data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > legacyAllocs {
		t.Fatalf("fault-free AppendToken allocates %v times, the legacy path it replaced %d", allocs, legacyAllocs)
	}
	f, _ := c.lookup("w")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tokens != nil {
		t.Fatal("fault-free append allocated a token ledger")
	}
}

func TestWriteFaultReadWindowsInvisibleToWrites(t *testing.T) {
	// A pure read storm (flaky/down reads) must not fail appends: the
	// write view only sees write-shaped windows and Down. Node 0 down is
	// shared; flaky-read node 1 serves writes normally.
	c := writeFixture(t, Options{})
	c.SetFaultSchedule(faults.NewSchedule(9).Flaky(1, 0, 0, 1))

	data := payload(2 << 12)
	trace, err := c.AppendToken("w", "w@0", data)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Retries != 0 {
		t.Fatalf("append retried under a read-only storm: %+v", trace)
	}
	if !bytes.Equal(readBack(t, c, "w"), data) {
		t.Fatal("append under read storm stored wrong bytes")
	}
}

// TestChunkGrowthDoubles: a chunk buffer that must grow at least doubles.
// A chunk holding one stripe's S bytes takes the next stripe's 140 small
// appends with one reallocation, 2·S per replica; append's own quarter
// steps take three, about 5·S. Growth stops at ChunkSize.
func TestChunkGrowthDoubles(t *testing.T) {
	const (
		streams     = 140
		stream      = 2 << 10
		stripe      = streams * stream
		replication = 2
	)
	c := writeFixture(t, Options{Nodes: 3, Replication: replication, ChunkSize: 3 * stripe})
	want := payload(stripe)
	if _, err := c.AppendToken("w", "w@0", want); err != nil {
		t.Fatal(err)
	}
	data := payload(stream)
	tokens := make([]string, 3*streams)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("w@%d", stripe+i*stream)
		want = append(want, data...)
	}
	appendStripe := func(tokens []string) {
		for _, tok := range tokens {
			if _, err := c.AppendToken("w", tok, data); err != nil {
				t.Fatal(err)
			}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendStripe(tokens[:streams])
	runtime.ReadMemStats(&after)
	if perReplica := (after.TotalAlloc - before.TotalAlloc) / replication; perReplica > 5*stripe/2 {
		t.Fatalf("appending %d bytes in %d appends allocated %d bytes per replica, want at most 2.5x", stripe, streams, perReplica)
	}

	// Two more stripes fill the first chunk and start the second.
	appendStripe(tokens[streams:])
	for _, n := range c.nodes {
		for key, buf := range n.chunks {
			if int64(cap(buf)) > c.opts.ChunkSize {
				t.Fatalf("chunk %d grew to %d bytes, past the %d-byte chunk size", key.index, cap(buf), c.opts.ChunkSize)
			}
		}
	}
	if !bytes.Equal(readBack(t, c, "w"), want) {
		t.Fatal("chunked appends stored wrong bytes")
	}
}

// TestChunkGrowthFollowsLength: files of one length whose first small
// appends differ grow through the same capacities, so writing them
// allocates the same. Doubling from the first appends' sizes instead of
// minChunkBuf, the first file's last doubling would fall short of its
// length and the others' would not.
func TestChunkGrowthFollowsLength(t *testing.T) {
	const length = 305 << 10
	c := writeFixture(t, Options{Nodes: 3, Replication: 2, ChunkSize: 1 << 20})
	heads := [][]int{{8, 32, 254}, {8, 40, 261}, {8, 45, 270}}
	caps := make([]int, len(heads))
	for i, head := range heads {
		path := fmt.Sprintf("f%d", i)
		if err := c.Create(path); err != nil {
			t.Fatal(err)
		}
		off := 0
		add := func(n int) {
			if _, err := c.AppendToken(path, fmt.Sprintf("%s@%d", path, off), payload(n)); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		for _, n := range head {
			add(n)
		}
		for off < length {
			add(min(250, length-off))
		}
		for _, n := range c.nodes {
			if buf, ok := n.chunks[chunkKey{path: path}]; ok {
				caps[i] = cap(buf)
			}
		}
	}
	for i, got := range caps {
		if got != 512<<10 {
			t.Errorf("file %d (first appends %v) of %d bytes grew to a %d-byte buffer, want %d", i, heads[i], length, got, 512<<10)
		}
	}
}
