// Autoscale: demonstrates the DPP service's closed scaling loop over a
// one-session Service — the Orchestrator bootstraps the worker fleet, a
// fast-consuming trainer starves it so the auto-scaler grows it, a
// mid-session trainer slowdown oversupplies it so workers are drained,
// retired, and deregistered, and the periodically-checkpointed reader
// state restores the session into a replica service. The session still
// delivers every row exactly once through all of it.
package main

import (
	"fmt"
	"log"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

func main() {
	// Build a small RM3-style dataset.
	profile := datagen.RM3
	spec := profile.Scale(0.05, 2, 1536)
	gen := datagen.NewGenerator(spec, 3)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		log.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable(profile.Name, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		log.Fatal(err)
	}
	totalRows := 0
	for day := 0; day < spec.Partitions; day++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("p%d", day))
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < spec.RowsPerPart; i++ {
			if err := pw.WriteRow(gen.Sample()); err != nil {
				log.Fatal(err)
			}
			totalRows++
		}
		if err := pw.Close(); err != nil {
			log.Fatal(err)
		}
	}

	proj := gen.Projection(1)
	session := dpp.SessionSpec{
		Table:    profile.Name,
		Features: proj.IDs(),
		Ops: []transforms.Op{
			&transforms.SigridHash{In: proj.IDs()[len(proj.IDs())-1], Out: 1 << 20, Salt: 1, MaxValue: 1 << 18},
		},
		DenseOut:  proj.IDs()[:4],
		SparseOut: []schema.FeatureID{1 << 20},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: 128 << 10, Flatmap: true},
	}
	const sessionID = "job"
	svc := dpp.NewService(wh)
	if err := svc.CreateSession(sessionID, session); err != nil {
		log.Fatal(err)
	}
	master, err := svc.Master(sessionID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session planned: %d splits over %d rows\n", master.SplitCount(), totalRows)

	// The closed loop: the Orchestrator owns the fleet end to end —
	// evaluate stats, launch and drain workers, reap the retired, take
	// periodic reader-state checkpoints.
	launcher := &dpp.FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
		Tune:           func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
	}
	orch := dpp.NewOrchestrator(svc, launcher, dpp.NewAutoScaler(1, 6))
	orch.OnError = func(err error) { log.Print(err) }
	orch.ScaleInterval = time.Millisecond
	orch.ScaleUpCooldown = time.Millisecond
	orch.ScaleDownCooldown = 3 * time.Millisecond
	orch.CheckpointEvery = 5 * time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- orch.Run(stop) }()

	// The trainer resolves worker membership from the session's master,
	// so its connections rebalance as the pool grows and shrinks.
	client, err := dpp.NewTenantClient(svc, sessionID, launcher.SessionDialer(sessionID), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 500 * time.Microsecond
	tr := trainer.NewTrainer(client)

	// Phase 1: a fast trainer takes half the session's batches, starving
	// worker buffers; the loop grows the pool.
	if _, err := tr.Run(totalRows / session.BatchSize / 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scale-up: pool grew to %d live workers under a fast trainer\n", orch.Status().Live)

	// Phase 2: the trainer slows down; buffers fill, data planes idle,
	// and the loop drains workers back toward the minimum.
	drainDeadline := time.Now().Add(10 * time.Second)
	for orch.Status().Drained == 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	st := orch.Status()
	fmt.Printf("scale-down: %d worker(s) drained after the trainer slowed\n", st.Drained)

	// Phase 3: consume the rest of the session at full speed.
	if _, err := tr.Run(0); err != nil {
		log.Fatal(err)
	}
	// A service outlives its sessions: stopping the loop retires the fleet.
	close(stop)
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}

	st = orch.Status()
	fmt.Printf("pool lifecycle: %d launched, peak %d, %d drained, %d checkpoints, 0 leaked (live=%d)\n",
		st.Launched, st.Peak, st.Drained, st.Checkpoints, st.Live)

	// Failover: the loop's latest checkpoint restores the session into a
	// replica service that agrees on progress (here: the finished
	// session). The loop checkpoints on its first Step, so there is
	// always one.
	states, err := dpp.DecodeServiceCheckpoint(orch.LastCheckpoint())
	if err != nil {
		log.Fatal(err)
	}
	replica := dpp.NewService(wh)
	if err := replica.RestoreSession(sessionID, session, states[sessionID]); err != nil {
		log.Fatal(err)
	}
	restored, err := replica.Master(sessionID)
	if err != nil {
		log.Fatal(err)
	}
	done, total := restored.Progress()
	fmt.Printf("failover: replica restored from checkpoint at %d/%d splits\n", done, total)

	fmt.Printf("delivered %d of %d rows across elastic churn\n", tr.RowsConsumed, totalRows)
	if tr.RowsConsumed != int64(totalRows) {
		log.Fatalf("row loss or duplication: got %d want %d", tr.RowsConsumed, totalRows)
	}
	fmt.Println("exactly-once delivery held")
}
