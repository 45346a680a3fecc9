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
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// dialWorker serves w's buffer on a loopback framed listener
// (dpp.ServeWorker) and opens one stream to it (dpp.DialWorkerFramed):
// a fixed pool's trainer reads its workers as dppd's and the
// benchmark's do.
func dialWorker(t *testing.T, w *dpp.Worker) dpp.WorkerAPI {
	t.Helper()
	ln, stop, err := dpp.ServeWorker(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	api, err := dpp.DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { api.Close() })
	return api
}

// TestEndToEndPipelinedSessionChecksums drives the full DSI flow —
// datagen synthesizes samples, dwrf writes them through the warehouse,
// a DPP master plans the session, pipelined workers extract/transform/
// load, and the trainer-side client consumes every batch — and asserts
// the delivered tensors carry exactly the written rows: row counts and
// order-independent feature checksums must match the generated data.
func TestEndToEndPipelinedSessionChecksums(t *testing.T) {
	const (
		partitions  = 2
		rowsPerPart = 384
	)
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, partitions, rowsPerPart)
	gen := datagen.NewGenerator(spec, 7)

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable("e2e", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}

	// The session materializes two raw dense and two raw sparse features
	// untouched (checksummable against the generated samples) plus two
	// transformed outputs.
	denseA, denseB := schema.FeatureID(1), schema.FeatureID(2)
	sparseA := schema.FeatureID(spec.DenseFeats + 1)
	sparseB := schema.FeatureID(spec.DenseFeats + 2)
	const (
		hashedOut = schema.FeatureID(1 << 20)
		logitOut  = schema.FeatureID(1<<20 + 1)
		hashMax   = int64(1) << 16
	)

	// Generate, write, and digest the ground truth in one pass.
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
			want.AddDense(denseA, s.DenseFeatures[denseA]) // absent → 0, matching materialization
			want.AddDense(denseB, s.DenseFeatures[denseB])
			want.AddSparse(sparseA, s.SparseFeatures[sparseA])
			want.AddSparse(sparseB, s.SparseFeatures[sparseB])
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	session := dpp.SessionSpec{
		Table:    "e2e",
		Features: []schema.FeatureID{denseA, denseB, sparseA, sparseB},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
			&transforms.Logit{In: denseA, Out: logitOut},
		},
		DenseOut:  []schema.FeatureID{denseA, denseB, logitOut},
		SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		Pipeline:  dpp.PipelineOptions{Prefetchers: 3, TransformParallelism: 3},
	}
	m, err := dpp.NewMaster(wh, session)
	if err != nil {
		t.Fatal(err)
	}

	var workers []*dpp.Worker
	var apis []dpp.WorkerAPI
	for i := 0; i < 2; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("e2e-w%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		apis = append(apis, dialWorker(t, w))
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *dpp.Worker) {
			defer wg.Done()
			if err := w.Run(nil); err != nil {
				t.Error(err)
			}
		}(w)
	}

	// The trainer-side consumption loop: every delivered batch is
	// digested exactly as the training loop would load it.
	client, err := dpp.NewClient(apis, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.NewContentSum()
	batches := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		batches++
		if b.Rows > session.BatchSize {
			t.Fatalf("batch of %d rows exceeds batch size %d", b.Rows, session.BatchSize)
		}
		got.AddBatch(b)
		for _, s := range b.Sparse {
			if s.Feature != hashedOut {
				continue
			}
			for _, idx := range s.Indices {
				if idx < 0 || idx >= hashMax {
					t.Fatalf("unhashed index %d in transformed feature", idx)
				}
			}
		}
	}
	wg.Wait()

	if got.Rows != int64(partitions*rowsPerPart) {
		t.Fatalf("trainer consumed %d rows, want %d", got.Rows, partitions*rowsPerPart)
	}
	// Drop the transformed outputs from the delivered digest: the
	// ground-truth digest covers the raw passthrough features.
	delete(got.Dense, logitOut)
	delete(got.Sparse, hashedOut)
	delete(got.Counts, hashedOut)
	if !got.Equal(want) {
		t.Fatalf("content checksums diverge:\n got %+v\nwant %+v", got, want)
	}
	if batches == 0 {
		t.Fatal("no batches delivered")
	}

	// The workers' per-stage accounting must cover the whole flow. A
	// worker can legitimately process zero splits (its sibling leased
	// them all first under slow -race scheduling), so the per-worker
	// check applies only where work happened; at least one worker must
	// have done some.
	busyWorkers := 0
	for _, w := range workers {
		rep := w.Report()
		if rep.SplitsDone == 0 {
			continue
		}
		busyWorkers++
		if rep.FetchBusy+rep.DecodeBusy+rep.TransformBusy+rep.DeliverBusy <= 0 {
			t.Fatalf("worker %s processed splits but reported no stage busy time: %+v", w.ID, rep)
		}
	}
	if busyWorkers == 0 {
		t.Fatal("no worker reported any processed splits")
	}

	// A trainer over a fresh identical session observes the same row
	// count through its own consumption loop.
	m2, err := dpp.NewMaster(wh, session)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := dpp.NewWorker("e2e-trainer-w", m2, wh)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w2.Run(nil); err != nil {
			t.Error(err)
		}
	}()
	client2, err := dpp.NewClient([]dpp.WorkerAPI{dialWorker(t, w2)}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainer.NewTrainer(client2)
	if _, err := tr.Run(0); err != nil {
		t.Fatal(err)
	}
	if tr.RowsConsumed != int64(partitions*rowsPerPart) {
		t.Fatalf("trainer consumed %d rows, want %d", tr.RowsConsumed, partitions*rowsPerPart)
	}
}

// elasticPhase1Batches is how much of the session the trainer consumes
// while the pool grows: enough to have batches in flight across the
// membership change, a small part of the 192 the tables hold, so that
// the rest can fill four workers' buffers, pipelines and stream windows
// during the pause.
const elasticPhase1Batches = 16

// driveElasticSession plays the trainer's three phases of the elastic
// exactly-once test — consume while the pool grows, pause until it has
// drained a worker, consume the rest — with the test goroutine as the
// Orchestrator's control loop: step runs one Step, as
// dpp.TestFleetFairShareConvergenceVirtualClock does. The policy and its
// thresholds are the real ones; evaluating them between the trainer's
// batches, not on o.Run's wall-clock ticker beside it, is what keeps a
// loaded host from spending phase 1's batches before the controller has
// looked at a starved buffer. It returns once the session has ended and
// every pipeline has left the session's membership on its own; the
// fleet members stay up, as a service's do between sessions.
func driveElasticSession(t *testing.T, o *dpp.Orchestrator, m *dpp.Master, consume func() bool) {
	t.Helper()
	step := func() {
		t.Helper()
		if err := o.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// await steps once a wall millisecond until cond holds: workers are
	// real goroutines whose heartbeats arrive in wall time, so waiting for
	// what they report is a poll with a deadline.
	await := func(what string, limit time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(limit); !cond(); step() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, o.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: the first Step bootstraps the pool; from the next one on
	// the policy sees a worker whose buffer is empty against a trainer
	// consuming as fast as it can, reads it as starved, and grows the
	// pool while batches are in flight.
	step()
	batches := 0
	for step(); o.Status().Peak < 2 || batches < elasticPhase1Batches; step() {
		if !consume() {
			t.Fatalf("session ended during scale-up phase after %d batches: %+v", batches, o.Status())
		}
		batches++
	}
	// Phase 2: the trainer pauses. Buffers fill, the data planes go
	// idle, and the Orchestrator drains workers back down; drained
	// workers retire and deregister once phase 3 empties their buffers.
	await("pool never drained back down", 20*time.Second, func() bool { return o.Status().Drained > 0 })
	// Phase 3: consume the rest of the session.
	for consume() {
		step()
	}
	if done, err := m.Done(); err != nil || !done {
		t.Fatalf("trainer saw the end of a session whose master reports done=%v err=%v", done, err)
	}
	await("pipelines did not retire from the finished session", 120*time.Second, func() bool {
		eps, err := m.ListWorkers()
		return err == nil && len(eps) == 0
	})
}

// TestEndToEndElasticSessionChecksums drives a full session through the
// closed scaling loop: a one-session Service, the Orchestrator owning
// its fleet, a tenant client resolving membership from the session's
// master, and the test only modulating consumption speed. A
// fast-consuming trainer starves the pool (the Orchestrator scales up),
// a pause oversupplies it (the Orchestrator drains workers back down and
// they deregister), and the trainer still receives every generated row
// exactly once — asserted by row counts and order-independent feature
// checksums as in the pipelined e2e test above. The client streams
// length-prefixed batch frames with credit flow control from every
// fleet worker's loopback listener, so worker deregistration and the
// client's window-rescue on connection removal must preserve
// exactly-once delivery too. It runs once with the fleet calling the
// service in process and once with the service serving RPC on real
// loopback.
func TestEndToEndElasticSessionChecksums(t *testing.T) {
	const sessionID = "job"
	transports := []struct {
		name  string
		table string
		seed  int64
		// fleet returns the launcher plus the control plane the tenant
		// reaches the session through.
		fleet func(t *testing.T, fx e2eFixture, svc *dpp.Service) (dpp.WorkerLauncher, dpp.FleetControl)
	}{
		{"inprocess", "e2e-elastic", 11, func(t *testing.T, fx e2eFixture, svc *dpp.Service) (dpp.WorkerLauncher, dpp.FleetControl) {
			return &dpp.FleetLauncher{Service: svc, WH: fx.wh, HeartbeatEvery: time.Millisecond}, svc
		}},
		{"framed", "e2e-framed", 13, func(t *testing.T, fx e2eFixture, svc *dpp.Service) (dpp.WorkerLauncher, dpp.FleetControl) {
			ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(stopService)
			launcher := &dpp.FleetLauncher{
				ServiceAddr:    ln.Addr().String(),
				WH:             fx.wh,
				HeartbeatEvery: time.Millisecond,
				OnError:        func(id string, err error) { t.Errorf("worker %s: %v", id, err) },
			}
			rs, err := dpp.DialService(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rs.Close() })
			return launcher, rs
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			fx := buildE2EFixture(t, tr.table, tr.seed, 1536, false)
			svc := dpp.NewService(fx.wh)
			if err := svc.CreateSession(sessionID, fx.session); err != nil {
				t.Fatal(err)
			}
			m, err := svc.Master(sessionID)
			if err != nil {
				t.Fatal(err)
			}
			launcher, ctrl := tr.fleet(t, fx, svc)
			o := dpp.NewOrchestrator(svc, launcher, dpp.NewAutoScaler(1, 4))
			o.ScaleInterval = time.Millisecond
			o.CheckpointEvery = 10 * time.Millisecond
			defer o.StopAll()

			client, err := dpp.NewTenantClient(ctrl, sessionID, dpp.SessionWorkerDialer(sessionID), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			client.RefreshEvery = 500 * time.Microsecond

			got := tensor.NewContentSum()
			consume := func() bool {
				b, ok, err := client.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return false
				}
				if b.Rows > fx.session.BatchSize {
					t.Fatalf("batch of %d rows exceeds batch size %d", b.Rows, fx.session.BatchSize)
				}
				got.AddBatch(b)
				b.Release() // recycles the streamed tensors
				return true
			}

			driveElasticSession(t, o, m, consume)

			st := o.Status()
			if st.Peak < 2 {
				t.Fatalf("pool never scaled up: %+v", st)
			}
			if st.Drained == 0 {
				t.Fatalf("pool never drained back down: %+v", st)
			}
			// Shutting the service's fleet down leaves nothing behind.
			o.StopAll()
			if st := o.Status(); st.Live != 0 {
				t.Fatalf("workers still tracked after StopAll: %+v", st)
			}
			if assigned := svc.FleetAssignments(); len(assigned) != 0 {
				t.Fatalf("fleet members still registered after StopAll: %v", assigned)
			}
			if eps, err := m.ListWorkers(); err != nil || len(eps) != 0 {
				t.Fatalf("workers leaked in the session's membership: %+v (%v)", eps, err)
			}
			assertExactDelivery(t, fx, got, "trainer")
		})
	}
}
