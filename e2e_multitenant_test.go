package dsi_test

import (
	"fmt"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// e2eFixture is one generated table plus the session spec reading it
// and the ground-truth content digest of the raw passthrough features.
type e2eFixture struct {
	wh        *warehouse.Warehouse
	session   dpp.SessionSpec
	want      *tensor.ContentSum
	rows      int
	hashedOut schema.FeatureID
	// publish is set for a tailing fixture: it seals the table's two
	// partitions and closes its stream.
	publish func()
}

// buildE2EFixture writes a two-partition RM1-profile table and digests
// the ground truth, for the elastic, crash and multi-tenant e2e tests.
// With tail set the table is an unbounded one that starts empty and the
// session tails it: the same rows arrive when the caller runs the
// fixture's publish.
func buildE2EFixture(t *testing.T, table string, seed int64, rowsPerPart int, tail bool) e2eFixture {
	t.Helper()
	const partitions = 2
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, partitions, rowsPerPart)
	gen := datagen.NewGenerator(spec, seed)

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	create := wh.CreateTable
	if tail {
		create = wh.CreateUnboundedTable
	}
	tbl, err := create(table, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}

	denseA, denseB := schema.FeatureID(1), schema.FeatureID(2)
	sparseA := schema.FeatureID(spec.DenseFeats + 1)
	sparseB := schema.FeatureID(spec.DenseFeats + 2)
	const (
		hashedOut = schema.FeatureID(1 << 20)
		hashMax   = int64(1) << 16
	)

	want := tensor.NewContentSum()
	publish := func() {
		t.Helper()
		for part := 0; part < partitions; part++ {
			pw, err := tbl.NewPartition(fmt.Sprintf("2026-07-%02d", part+1))
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
				want.AddDense(denseA, s.DenseFeatures[denseA])
				want.AddDense(denseB, s.DenseFeatures[denseB])
				want.AddSparse(sparseA, s.SparseFeatures[sparseA])
				want.AddSparse(sparseB, s.SparseFeatures[sparseB])
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if tail {
			if err := tbl.CloseStream(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !tail {
		publish()
		publish = nil
	}

	return e2eFixture{
		wh: wh,
		session: dpp.SessionSpec{
			Table:     table,
			Unbounded: tail,
			Features:  []schema.FeatureID{denseA, denseB, sparseA, sparseB},
			Ops: []transforms.Op{
				&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
			},
			DenseOut:  []schema.FeatureID{denseA, denseB},
			SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
			BatchSize: 16,
			Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		},
		want:      want,
		rows:      partitions * rowsPerPart,
		hashedOut: hashedOut,
		publish:   publish,
	}
}

// assertExactDelivery compares a consumed digest against the fixture's
// ground truth (dropping the transformed output first).
func assertExactDelivery(t *testing.T, fx e2eFixture, got *tensor.ContentSum, label string) {
	t.Helper()
	if got.Rows != int64(fx.rows) {
		t.Fatalf("%s consumed %d rows, want %d (exactly-once violated)", label, got.Rows, fx.rows)
	}
	delete(got.Sparse, fx.hashedOut)
	delete(got.Counts, fx.hashedOut)
	if !got.Equal(fx.want) {
		t.Fatalf("%s content checksums diverge:\n got %+v\nwant %+v", label, got, fx.want)
	}
}

// crashFirstLive crash-kills the lowest-numbered launched fleet worker
// still tracked by the launcher and returns its ID.
func crashFirstLive(t *testing.T, launcher *dpp.FleetLauncher, prefix string) string {
	t.Helper()
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if launcher.Crash(id) {
			return id
		}
	}
	t.Fatal("no live fleet worker to crash")
	return ""
}

// TestEndToEndChecksumWorkerCrash proves exactly-once delivery across a
// non-graceful worker death: a fleet worker is crash-killed mid-stream
// (no drain, no deregistration, data plane severed), the service's reap
// requeues its unfinished leases, a replacement re-runs them, and
// the trainer's (split, seq) dedup drops the redelivered overlap — so
// row counts and content checksums still match the generated data
// exactly.
func TestEndToEndChecksumWorkerCrash(t *testing.T) {
	fx := buildE2EFixture(t, "crash-framed", 29, 512, false)
	svc := dpp.NewService(fx.wh)
	svc.FleetLeaseTimeout = 150 * time.Millisecond
	const sessionID = "job"
	if err := svc.CreateSession(sessionID, fx.session); err != nil {
		t.Fatal(err)
	}

	ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()

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

	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	client, err := dpp.NewTenantClient(rs, sessionID, dpp.SessionWorkerDialer(sessionID), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = 500 * time.Microsecond

	got := tensor.NewContentSum()
	batches := 0
	consume := func() bool {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
		batches++
		got.AddBatch(b)
		b.Release()
		return true
	}

	// Consume part of the session, then let worker buffers and
	// stream windows fill so the crash strands real inventory.
	for batches < 12 {
		if !consume() {
			t.Fatalf("session ended after only %d batches", batches)
		}
	}
	time.Sleep(50 * time.Millisecond)
	crashed := crashFirstLive(t, launcher, dpp.FleetIDPrefix)
	t.Logf("crashed fleet worker %s mid-stream", crashed)

	// Consume the rest across the crash: fetch errors drop the
	// dead connection, the reap requeues its splits, and the
	// replacement re-delivers them.
	for consume() {
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

	infos, err := rs.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Done {
		t.Fatalf("session registry at end = %+v, want one Done session", infos)
	}
	assertExactDelivery(t, fx, got, "trainer")
}

// mtPhase2Batches is how much of its 96-batch session every tenant
// consumes before the coordinated pause: enough that the crash lands on
// sessions with consumed, buffered and in-window batches all at once.
const mtPhase2Batches = 8

// TestEndToEndMultiTenantFleetChecksums is the acceptance scenario:
// three concurrent sessions with weights 1/2/3 tail one table over one
// shared elastic fleet through real TCP framed streams; the fleet
// scales up while the tenants wait on partitions that are not sealed
// yet, and drains its oversupply; the partitions land and the tenants
// consume, pause, and resume; one fleet worker is crash-killed without
// drain mid-run; and every session still receives exactly the generated
// rows, asserted by per-tenant row counts and order-independent content
// checksums.
//
// Nothing here races a clock. The test goroutine is the fleet
// Orchestrator's control loop, as in driveElasticSession: it runs one
// Step per control period, with the real policy and thresholds. And the
// starvation that makes the policy grow the pool is a state, not a
// moment: tenants are attached and no pipeline has a row to give them
// until the test seals
// the partitions. (With the rows there from the start, this fixture's
// workers outrun its trainers on a small host and buffers stay full, so
// the pool would grow only if a Step happened to sample a pipeline in
// the millisecond before its first split landed.)
// (Fair-share convergence within one worker of quota is asserted
// deterministically, one Step at a time, in
// dpp.TestFleetFairShareConvergenceVirtualClock.)
func TestEndToEndMultiTenantFleetChecksums(t *testing.T) {
	fx := buildE2EFixture(t, "mt", 31, 768, true)
	weights := map[string]float64{"s1": 1, "s2": 2, "s3": 3}
	sessionIDs := []string{"s1", "s2", "s3"}

	svc := dpp.NewService(fx.wh)
	svc.FleetLeaseTimeout = 150 * time.Millisecond
	ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()

	// Tenants submit their sessions over the wire, as dppd's submit
	// role does.
	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for _, id := range sessionIDs {
		spec := fx.session
		spec.Weight = weights[id]
		if err := rs.CreateSession(id, spec); err != nil {
			t.Fatal(err)
		}
	}

	launcher := &dpp.FleetLauncher{
		ServiceAddr:    ln.Addr().String(),
		WH:             fx.wh,
		HeartbeatEvery: time.Millisecond,
	}
	o := dpp.NewOrchestrator(svc, launcher, dpp.NewAutoScaler(2, 5))
	o.ScaleInterval = time.Millisecond
	o.CheckpointEvery = 10 * time.Millisecond
	defer o.StopAll()

	// Three tenant trainers, polled in turn by this goroutine without
	// blocking, so a tenant waiting on a reap or a relaunch never holds
	// up the Step that would deliver it.
	type tenant struct {
		id      string
		client  *dpp.Client
		got     *tensor.ContentSum
		batches int
		done    bool
	}
	var tenants []*tenant
	for i, id := range sessionIDs {
		client, err := dpp.NewTenantClient(rs, id, dpp.SessionWorkerDialer(id), 0, i)
		if err != nil {
			t.Fatalf("tenant %s: %v", id, err)
		}
		client.RefreshEvery = 500 * time.Microsecond
		tenants = append(tenants, &tenant{id: id, client: client, got: tensor.NewContentSum()})
	}
	step := func() {
		t.Helper()
		if err := o.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// sweep asks each unfinished tenant for one batch without blocking.
	sweep := func() (progress bool) {
		t.Helper()
		for _, tn := range tenants {
			if tn.done {
				continue
			}
			b, ok, done, err := tn.client.TryNext()
			if err != nil {
				t.Fatalf("tenant %s: %v", tn.id, err)
			}
			if ok {
				tn.batches++
				tn.got.AddBatch(b)
				b.Release()
				progress = true
			}
			tn.done = done
		}
		return progress
	}
	// The control period stays one ScaleInterval of wall time, which is
	// what the workers' heartbeats are paced to; the tenants spend it
	// either consuming at full speed or paused.
	consume := func() {
		for start := time.Now(); time.Since(start) < o.ScaleInterval; {
			if !sweep() {
				time.Sleep(o.ScaleInterval / 10)
			}
		}
	}
	pause := func() { time.Sleep(o.ScaleInterval) }
	// until alternates one control period of body and a Step until cond
	// holds.
	until := func(what string, limit time.Duration, body func(), cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(limit); !cond(); step() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, o.Status())
			}
			body()
		}
	}

	allTenants := func(cond func(*tenant) bool) bool {
		for _, tn := range tenants {
			if !cond(tn) {
				return false
			}
		}
		return true
	}

	// Phase 1: the first Step bootstraps the fleet; every pipeline it
	// starts is empty with a tenant attached, which the policy reads as
	// starvation for as long as it lasts, and the pool grows.
	step()
	until("shared fleet never scaled up", 30*time.Second, consume, func() bool { return o.Status().Peak >= 3 })
	if !allTenants(func(tn *tenant) bool { return tn.batches == 0 && !tn.done }) {
		t.Fatalf("a tenant was served or ended before any partition was sealed: %+v", o.Status())
	}
	// Phase 2: the partitions land and the stream closes; the tenants
	// consume at full speed.
	fx.publish()
	until("tenants were not served", 30*time.Second, consume, func() bool {
		return allTenants(func(tn *tenant) bool { return tn.batches >= mtPhase2Batches })
	})
	// Phase 3 (trainers paused): the controller drains oversupply —
	// members it launched in phase 1 that hold no assignment, members
	// whose buffers have filled — and one worker dies hard.
	until("shared fleet never drained back down", 20*time.Second, pause, func() bool { return o.Status().Drained > 0 })
	crashed := crashFirstLive(t, launcher, dpp.FleetIDPrefix)
	t.Logf("crashed fleet worker %s with three tenants in flight", crashed)
	// Phase 4: consume the rest across the drain and the crash.
	until("tenants did not finish", 120*time.Second, consume, func() bool {
		return allTenants(func(tn *tenant) bool { return tn.done })
	})

	infos, err := rs.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(sessionIDs) {
		t.Fatalf("session registry = %+v", infos)
	}
	for _, info := range infos {
		if !info.Done {
			t.Fatalf("session %s not done at end: %+v", info.ID, info)
		}
	}
	for _, tn := range tenants {
		assertExactDelivery(t, fx, tn.got, "tenant "+tn.id)
	}
	// Tenants leave; the registry and the fleet's assignments empty out.
	for _, id := range sessionIDs {
		if err := rs.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}
	infos, err = rs.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("registry after close = %+v, want empty", infos)
	}
	for id, n := range svc.AssignmentCounts() {
		if n != 0 {
			t.Fatalf("assignments leaked after close: %s=%d", id, n)
		}
	}
}
