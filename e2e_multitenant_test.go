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
}

// buildE2EFixture writes a two-partition RM1-profile table and digests
// the ground truth, mirroring the elastic e2e tests above.
func buildE2EFixture(t *testing.T, table string, seed int64, rowsPerPart int, plane string) e2eFixture {
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
	tbl, err := wh.CreateTable(table, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
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

	return e2eFixture{
		wh: wh,
		session: dpp.SessionSpec{
			Table:    table,
			Features: []schema.FeatureID{denseA, denseB, sparseA, sparseB},
			Ops: []transforms.Op{
				&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
			},
			DenseOut:  []schema.FeatureID{denseA, denseB},
			SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
			BatchSize: 16,
			Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
			DataPlane: plane,
		},
		want:      want,
		rows:      partitions * rowsPerPart,
		hashedOut: hashedOut,
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
func crashFirstLive(t *testing.T, launcher *dpp.RPCFleetLauncher, prefix string) string {
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
// non-graceful worker death on both data planes: a fleet worker is
// crash-killed mid-stream (no drain, no deregistration, data plane
// severed), the master's reap loop requeues its unfinished leases, a
// replacement re-runs them, and the trainer's (split, seq) dedup drops
// the redelivered overlap — so row counts and content checksums still
// match the generated data exactly.
func TestEndToEndChecksumWorkerCrash(t *testing.T) {
	for _, plane := range []string{dpp.DataPlaneFramed, dpp.DataPlaneGob} {
		t.Run(plane, func(t *testing.T) {
			fx := buildE2EFixture(t, "crash-"+plane, 29, 512, plane)
			svc := dpp.NewService(fx.wh)
			svc.FleetLeaseTimeout = 150 * time.Millisecond
			const sessionID = "job"
			if err := svc.CreateSession(sessionID, fx.session); err != nil {
				t.Fatal(err)
			}
			m, err := svc.Master(sessionID)
			if err != nil {
				t.Fatal(err)
			}
			m.LeaseTimeout = 100 * time.Millisecond

			ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer stopService()

			launcher := &dpp.RPCFleetLauncher{
				ServiceAddr:    ln.Addr().String(),
				WH:             fx.wh,
				HeartbeatEvery: time.Millisecond,
				Tune:           func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
			}
			o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(2, 3))
			o.ScaleInterval = time.Millisecond
			o.ScaleUpCooldown = time.Millisecond
			o.ScaleDownCooldown = 3 * time.Millisecond
			stop := make(chan struct{})
			runDone := make(chan error, 1)
			go func() { runDone <- o.Run(stop) }()

			rs, err := dpp.DialService(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			dial, err := dpp.SessionWorkerDialer(plane, sessionID)
			if err != nil {
				t.Fatal(err)
			}
			client, err := dpp.NewTenantClient(rs, sessionID, dial, 0, 0)
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
			crashed := crashFirstLive(t, launcher, o.IDPrefix)
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
			assertExactDelivery(t, fx, got, plane+" trainer")
		})
	}
}

// TestEndToEndMultiTenantFleetChecksums is the acceptance scenario:
// three concurrent sessions with weights 1/2/3 run over one shared
// elastic fleet through real TCP framed streams; the fleet scales up
// under demand and drains back during a coordinated trainer pause; one
// fleet worker is crash-killed without drain mid-run; and every
// session still receives exactly the generated rows, asserted by
// per-tenant row counts and order-independent content checksums.
// (Fair-share convergence within one worker of quota is asserted
// deterministically on the virtual clock in
// dpp.TestFleetFairShareConvergenceVirtualClock.)
func TestEndToEndMultiTenantFleetChecksums(t *testing.T) {
	fx := buildE2EFixture(t, "mt", 31, 768, dpp.DataPlaneFramed)
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
		m, err := svc.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		m.LeaseTimeout = 100 * time.Millisecond
	}

	launcher := &dpp.RPCFleetLauncher{
		ServiceAddr:    ln.Addr().String(),
		WH:             fx.wh,
		HeartbeatEvery: time.Millisecond,
		Tune:           func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
	}
	o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(2, 5))
	o.ScaleInterval = time.Millisecond
	o.ScaleUpCooldown = time.Millisecond
	o.ScaleDownCooldown = 3 * time.Millisecond
	o.CheckpointEvery = 10 * time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	// Three tenant trainers consume concurrently: a fast phase that
	// starves the shared fleet (scale up), a coordinated pause (drain
	// down + crash), then the remainder.
	var (
		phase1 sync.WaitGroup
		resume = make(chan struct{})
		wg     sync.WaitGroup
	)
	sums := make(map[string]*tensor.ContentSum, len(sessionIDs))
	fail := make(chan error, len(sessionIDs))
	for i, id := range sessionIDs {
		got := tensor.NewContentSum() // not read back through sums: later iterations write the map
		sums[id] = got
		phase1.Add(1)
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			dial, err := dpp.SessionWorkerDialer(dpp.DataPlaneFramed, id)
			if err != nil {
				phase1.Done()
				fail <- err
				return
			}
			client, err := dpp.NewTenantClient(rs, id, dial, 0, i)
			if err != nil {
				phase1.Done()
				fail <- fmt.Errorf("tenant %s: %w", id, err)
				return
			}
			client.RefreshEvery = 500 * time.Microsecond
			batches := 0
			consume := func() (bool, error) {
				b, ok, err := client.Next()
				if err != nil {
					return false, fmt.Errorf("tenant %s: %w", id, err)
				}
				if !ok {
					return false, nil
				}
				batches++
				got.AddBatch(b)
				b.Release()
				return true, nil
			}
			// Phase 1: demand tensors at full speed until the shared
			// pool visibly grows (or a batch budget runs out).
			for o.Status().Peak < 3 && batches < 60 {
				ok, err := consume()
				if err != nil || !ok {
					phase1.Done()
					if err == nil {
						err = fmt.Errorf("tenant %s ended during scale-up after %d batches", id, batches)
					}
					fail <- err
					return
				}
			}
			phase1.Done()
			<-resume
			// Phase 3: consume the rest across the drain and the crash.
			for {
				ok, err := consume()
				if err != nil {
					fail <- err
					return
				}
				if !ok {
					return
				}
			}
		}(i, id)
	}

	phase1.Wait()
	// Phase 2 (trainers paused): buffers fill fleet-wide, the
	// controller drains oversupply, and one worker dies hard.
	drainDeadline := time.Now().Add(20 * time.Second)
	for o.Status().Drained == 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	crashed := crashFirstLive(t, launcher, o.IDPrefix)
	t.Logf("crashed fleet worker %s with three tenants in flight", crashed)
	close(resume)
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

	st := o.Status()
	if st.Peak < 3 {
		t.Fatalf("shared fleet never scaled up: %+v", st)
	}
	if st.Drained == 0 {
		t.Fatalf("shared fleet never drained back down: %+v", st)
	}
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
	for _, id := range sessionIDs {
		assertExactDelivery(t, fx, sums[id], "tenant "+id)
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
