package dsi_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tectonic/faults"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// chaosFixture is like e2eFixture but reads every feature of the table:
// the stripe content hash covers all streams, so a full projection is
// what arms checksum verification (and hence corruption quarantine) on
// every stripe fetch.
type chaosFixture struct {
	wh      *warehouse.Warehouse
	session dpp.SessionSpec
	want    *tensor.ContentSum
	rows    int
}

// buildChaosFixture writes a two-partition RM1-profile table on a
// triplicated six-node cluster and digests the ground truth over every
// feature.
func buildChaosFixture(t *testing.T, table string, seed int64, rowsPerPart int) chaosFixture {
	t.Helper()
	const partitions = 2
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.005, partitions, rowsPerPart)
	gen := datagen.NewGenerator(spec, seed)

	cluster, err := tectonic.NewCluster(tectonic.Options{
		Nodes: 6, Replication: 3,
		// A deeper attempt budget than the default keeps a worst-case
		// replica set (down + quarantined + flaky) from exhausting: the
		// flaky replica gets enough salted draws to come through.
		Retry: tectonic.RetryPolicy{MaxAttempts: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable(table, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}

	var dense, sparse []schema.FeatureID
	for i := 1; i <= spec.DenseFeats; i++ {
		dense = append(dense, schema.FeatureID(i))
	}
	for i := spec.DenseFeats + 1; i <= spec.DenseFeats+spec.SparseFeats; i++ {
		sparse = append(sparse, schema.FeatureID(i))
	}
	const (
		hashedOut = schema.FeatureID(1 << 20)
		hashMax   = int64(1) << 16
	)

	want := tensor.NewContentSum()
	for part := 0; part < partitions; part++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("2026-08-%02d", part+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerPart; i++ {
			s := gen.Sample()
			if err := pw.WriteRow(s); err != nil {
				t.Fatal(err)
			}
			want.Rows++
			want.AddLabel(s.Label)
			for _, id := range dense {
				want.AddDense(id, s.DenseFeatures[id])
			}
			for _, id := range sparse {
				want.AddSparse(id, s.SparseFeatures[id])
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	return chaosFixture{
		wh: wh,
		session: dpp.SessionSpec{
			Table:    table,
			Features: append(append([]schema.FeatureID(nil), dense...), sparse...),
			Ops: []transforms.Op{
				&transforms.SigridHash{In: sparse[0], Out: hashedOut, Salt: 3, MaxValue: hashMax},
			},
			DenseOut:  dense,
			SparseOut: append(append([]schema.FeatureID(nil), sparse...), hashedOut),
			BatchSize: 16,
			Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		},
		want: want,
		rows: partitions * rowsPerPart,
	}
}

// discoverReplicas reveals which nodes hold a file's first chunk by
// probing and quarantining: each traced read serves the best clean
// replica, which is then quarantined so the next probe reveals the one
// behind it. The caller resets the fault plane afterwards.
func discoverReplicas(t *testing.T, c *tectonic.Cluster, path string) []int {
	t.Helper()
	reps := make([]int, 0, c.Replication())
	for i := 0; i < c.Replication(); i++ {
		_, trace, err := c.ReadAtTraced(path, 0, 1)
		if err != nil || len(trace.Served) == 0 {
			t.Fatalf("probe of %s: served=%v err=%v", path, trace.Served, err)
		}
		n := trace.Served[0].Node
		reps = append(reps, n)
		c.Quarantine(path, 0, n)
	}
	return reps
}

// chaosSchedule builds the storm against probed replica placements, so
// every fault class provably sits in a served read path and the healing
// machinery cannot dodge it:
//
//   - every node is flaky (transient I/O errors cluster-wide);
//   - the primary replica of data file 0 silently corrupts, forcing the
//     checksum -> quarantine -> refetch loop — and file 0's surviving
//     replicas are flaky, so its reads must also burn real retries;
//   - a replica of data file 1 that holds none of file 0 is in a 16x
//     brownout: once it becomes file 1's best replica it serves with
//     latencies that trip the hedge threshold, and a clean hedge target
//     is guaranteed because the down node is placed outside both files.
func chaosSchedule(t *testing.T, c *tectonic.Cluster, table string) *faults.Schedule {
	t.Helper()
	paths := c.List("warehouse/" + table + "/")
	if len(paths) < 2 {
		t.Fatalf("table %q stored as %v, want at least two partition files", table, paths)
	}
	reps0 := discoverReplicas(t, c, paths[0])
	reps1 := discoverReplicas(t, c, paths[1])
	c.ResetFaultPlane()
	in := func(set []int, n int) bool {
		for _, v := range set {
			if v == n {
				return true
			}
		}
		return false
	}

	corruptNode := reps0[0]
	slowNode := -1
	for _, n := range reps1 {
		if n != corruptNode && !in(reps0, n) {
			slowNode = n
			break
		}
	}
	if slowNode < 0 { // file 1 fully shadowed by file 0's nodes
		for _, n := range reps1 {
			if n != corruptNode {
				slowNode = n
				break
			}
		}
	}
	downNode := -1
	for n := 0; n < 6; n++ {
		if !in(reps0, n) && !in(reps1, n) {
			downNode = n
			break
		}
	}

	sched := faults.NewSchedule(1234)
	for n := 0; n < 6; n++ {
		sched.Flaky(n, 0, 0, 0.3)
	}
	// Later windows win, so the special roles override the flaky base.
	sched.Corrupting(corruptNode, 0, 0)
	sched.Slow(slowNode, 0, 0, 16)
	if downNode >= 0 {
		sched.Down(downNode, 0, 0)
	}
	t.Logf("chaos roles: file0=%v file1=%v corrupting=%d slow=%d down=%d, rest flaky",
		reps0, reps1, corruptNode, slowNode, downNode)
	return sched
}

// TestEndToEndChecksumStorageChaos is the self-healing acceptance
// scenario: two tenant sessions stream the same table through a shared
// elastic fleet while the storage layer is in a seeded storm — every
// node throwing transient errors, one node down, one node serving
// bit-rotted bytes, one node browned out 16x. The read path must retry,
// fail over, hedge, and quarantine its way through so that both
// trainers still receive exactly the generated rows (order-independent
// content checksums), with the recovery work visible in the WorkerStats
// flowing through fleet heartbeats.
func TestEndToEndChecksumStorageChaos(t *testing.T) {
	fx := buildChaosFixture(t, "chaos", 37, 512)
	sessionIDs := []string{"s1", "s2"}

	svc := dpp.NewService(fx.wh)
	svc.FleetLeaseTimeout = 500 * time.Millisecond
	ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()

	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	masters := make(map[string]*dpp.Master, len(sessionIDs))
	for _, id := range sessionIDs {
		if err := rs.CreateSession(id, fx.session); err != nil {
			t.Fatal(err)
		}
		m, err := svc.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		masters[id] = m
	}

	// The storm starts before the first split is leased.
	fx.wh.Cluster().SetFaultSchedule(chaosSchedule(t, fx.wh.Cluster(), "chaos"))

	launcher := &dpp.FleetLauncher{
		ServiceAddr:    ln.Addr().String(),
		WH:             fx.wh,
		HeartbeatEvery: time.Millisecond,
	}
	o := dpp.NewOrchestrator(svc, launcher, dpp.NewAutoScaler(2, 3))
	o.ScaleInterval = time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	sums := make(map[string]*tensor.ContentSum, len(sessionIDs))
	fail := make(chan error, len(sessionIDs))
	var wg sync.WaitGroup
	for i, id := range sessionIDs {
		got := tensor.NewContentSum()
		sums[id] = got
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			client, err := dpp.NewTenantClient(rs, id, dpp.SessionWorkerDialer(id), 0, i)
			if err != nil {
				fail <- fmt.Errorf("tenant %s: %w", id, err)
				return
			}
			client.RefreshEvery = 500 * time.Microsecond
			for {
				b, ok, err := client.Next()
				if err != nil {
					fail <- fmt.Errorf("tenant %s: %w", id, err)
					return
				}
				if !ok {
					return
				}
				got.AddBatch(b)
				b.Release()
			}
		}(i, id)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fleet controller did not stop")
	}

	// Exact delivery: every tenant got precisely the generated data, bit
	// rot and brownouts notwithstanding.
	const hashedOut = schema.FeatureID(1 << 20)
	for _, id := range sessionIDs {
		got := sums[id]
		if got.Rows != int64(fx.rows) {
			t.Fatalf("tenant %s consumed %d rows, want %d", id, got.Rows, fx.rows)
		}
		delete(got.Sparse, hashedOut)
		delete(got.Counts, hashedOut)
		if !got.Equal(fx.want) {
			t.Fatalf("tenant %s content checksums diverge under chaos:\n got %+v\nwant %+v", id, got, fx.want)
		}
	}

	// The recovery machinery visibly did the work, and its accounting
	// made it through ReadStats -> ResourceReport -> WorkerStats ->
	// heartbeats. Every pipeline has deregistered by now; each session
	// master kept what its workers last reported.
	var agg dpp.WorkerStats
	for _, m := range masters {
		rec, released := m.Recovery()
		agg.Recovery.Add(rec)
		agg.SplitsReleased += released
	}
	t.Logf("aggregate recovery stats: %+v", agg)
	if agg.StorageRetries == 0 {
		t.Fatal("no storage retries surfaced in WorkerStats under a flaky cluster")
	}
	if agg.HedgedReads == 0 {
		t.Fatal("no hedged reads surfaced in WorkerStats with a 16x brownout in the read path")
	}
	if agg.Quarantines == 0 {
		t.Fatal("no quarantines surfaced in WorkerStats with a corrupting primary replica")
	}
	fc := fx.wh.Cluster().FaultCounters()
	if fc.Retries == 0 || fc.Hedges == 0 || fc.CorruptServes == 0 {
		t.Fatalf("cluster-level fault counters incomplete: %+v", fc)
	}
}
