package dwrf

import (
	"testing"

	"dsi/internal/tectonic"
	"dsi/internal/tectonic/faults"
)

// TestCorruptReplicaQuarantineAndSkip drives the full self-healing loop:
// a silently corrupting node serves bit-flipped stripe bytes, the
// content-hash check catches it, the bad replica is quarantined, the
// retry fetches clean bytes from another replica — and a subsequent read
// of the same data never touches the quarantined replica again.
func TestCorruptReplicaQuarantineAndSkip(t *testing.T) {
	cl, err := tectonic.NewCluster(tectonic.Options{
		Nodes: 4, Replication: 2, ChunkSize: 1 << 20,
		// Hedging would race a second read against the corrupting
		// replica and muddy the serve accounting this test asserts on.
		Retry: tectonic.RetryPolicy{DisableHedge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := buildSchema(t, 4, 2)
	rows := genRows(ts, 300, 0.8, 42)
	writeFile(t, cl, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	r, err := OpenReader(cl, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Full projection, so the content hash covers every fetched stream;
	// every pass must read back exactly the written rows.
	readAll := func() ReadStats { return requireReadsRows(t, r, rows, nil, ReadOptions{}) }

	// Placement is rendezvous-hashed, so which node is the file's primary
	// replica isn't known up front: corrupt each node in turn until the
	// read path actually receives bad bytes.
	corrupted := false
	for node := 0; node < 4 && !corrupted; node++ {
		cl.SetFaultSchedule(faults.NewSchedule(17).Corrupting(node, 0, 0))
		stats := readAll()
		if stats.CorruptStripes == 0 {
			continue // node holds no primary replica of this file
		}
		corrupted = true
		if stats.Quarantines == 0 {
			t.Fatal("corruption detected but nothing quarantined")
		}
		if fc := cl.FaultCounters(); fc.Quarantines == 0 || fc.CorruptServes == 0 {
			t.Fatalf("cluster counters missed the event: %+v", fc)
		}

		// Second pass: the quarantined replica ranks last now, so the
		// same read must be served clean — no fresh corruption, and the
		// bad node never serves these chunks again.
		before := cl.FaultCounters().CorruptServes
		stats2 := readAll()
		if stats2.CorruptStripes != 0 {
			t.Fatalf("re-read still hit corruption: %+v", stats2)
		}
		if after := cl.FaultCounters().CorruptServes; after != before {
			t.Fatalf("quarantined replica served again: %d corrupt serves grew to %d", before, after)
		}
	}
	if !corrupted {
		t.Fatal("no corrupting node was ever asked to serve — fixture broken")
	}
}

// TestAllReplicasCorruptIsPermanent verifies the failure floor: when
// every replica of a stripe serves bytes that disagree with the recorded
// content hash, the read fails with a corruption error instead of
// retrying forever.
func TestAllReplicasCorruptIsPermanent(t *testing.T) {
	cl, err := tectonic.NewCluster(tectonic.Options{
		Nodes: 4, Replication: 2, ChunkSize: 1 << 20,
		Retry: tectonic.RetryPolicy{DisableHedge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := buildSchema(t, 3, 1)
	rows := genRows(ts, 200, 0.8, 7)
	writeFile(t, cl, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	r, err := OpenReader(cl, "f")
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule(23)
	for i := 0; i < 4; i++ {
		sched.Corrupting(i, 0, 0)
	}
	cl.SetFaultSchedule(sched)

	_, stats, err := r.ReadStripe(0, nil, ReadOptions{}, nil)
	if err == nil {
		t.Fatal("read succeeded with every replica corrupting")
	}
	if !tectonic.IsRetryable(err) {
		// Corruption stays classified retryable at the split level (a
		// different worker may read after the fault window), but the
		// stripe fetch itself must have given up.
		t.Fatalf("unexpected error class: %v", err)
	}
	if stats.CorruptStripes == 0 || stats.Quarantines == 0 {
		t.Fatalf("failure accounting empty: %+v", stats)
	}
}
