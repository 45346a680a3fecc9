// Command dppd runs DPP components as networked processes over TCP,
// demonstrating the disaggregated deployment of §3.2.1: a Service
// hosting one Master per training session, a shared fleet of stateless
// session-aware workers preprocessing their splits, and Clients
// (standing in for trainers) consuming tensors.
//
// There is one deployment. The master role hosts the Service with
// -sessions pre-created sessions s1..sN (one by default) and runs the
// closed scaling loop itself: an Orchestrator elastically launches and
// drains RPC-served fleet workers between -min-workers and -max-workers
// to track trainer demand, dividing the fleet among sessions by
// weighted fair share. The worker role is a manually started fleet
// worker: it registers with the same service and is assigned sessions
// alongside the launched ones (with -max-workers 0 the master launches
// none, and such workers are the whole fleet). The client role joins
// one session (-session, s1 by default), resolving the live worker
// membership from the master so connections rebalance as the pool
// resizes; a static -workers list remains supported for manually
// operated fleets. The submit role registers a new session over RPC
// (its -weight is its fleet share), consumes it like a trainer, and
// closes it on completion.
//
// Because the module is self-contained and offline, every role
// regenerates the same deterministic synthetic dataset locally (seeded by
// -seed), standing in for shared access to the Tectonic cluster.
//
// Usage:
//
//	dppd -role master -addr :7070 -min-workers 1 -max-workers 8
//	dppd -role worker -master localhost:7070 -addr :7071   # extra manual fleet worker
//	dppd -role client -master localhost:7070               # joins session s1
//	dppd -role master -max-workers 0                       # manual fleet only
//	dppd -role client -workers localhost:7071,localhost:7072
//	dppd -role demo            # all roles in one process, elastic fleet
//
//	dppd -role master -sessions 2 -max-workers 8   # two tenants, one fleet
//	dppd -role submit -master localhost:7070 -session mine -weight 3
//	dppd -role client -master localhost:7070 -session s2
//	dppd -role demo -sessions 3 -max-workers 5     # 3 tenants, one fleet
//
//	dppd -role ingest -requests 8192               # streaming Scribe->ETL->session loop
//	dppd -role ingest -write-fault-seed 7          # same loop through a write storm
//
// The ingest role closes the DSI loop live: a serving simulator streams
// feature/event logs into Scribe, the ETL joins and seals DWRF
// partitions into an unbounded table, and an unbounded session tails it
// over TCP until the producer closes the stream, reporting event-time to
// trainer freshness lag. With -write-fault-seed the loop runs through a
// seeded write storm — torn Scribe acks, write-flaky warehouse nodes, a
// down node, failing seals — and reports the recovery work (retries,
// dedups, re-produced partitions) that kept delivery exactly-once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/tectonic/faults"
	"dsi/internal/trainer"
	"dsi/internal/warehouse"
)

func main() {
	role := flag.String("role", "demo", "master | worker | client | submit | demo | ingest")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (master/worker)")
	masterAddr := flag.String("master", "127.0.0.1:7070", "master address (worker/client)")
	workerList := flag.String("workers", "", "comma-separated fleet worker addresses (client; overrides -master resolution)")
	model := flag.String("model", "RM1", "workload profile: RM1, RM2, or RM3")
	seed := flag.Int64("seed", 1, "dataset seed (must match across roles)")
	id := flag.String("id", fmt.Sprintf("worker-%d", os.Getpid()), "worker ID")

	// Elastic control plane knobs (master/demo roles).
	minWorkers := flag.Int("min-workers", 1, "master/demo: lower bound of the auto-scaled pool")
	maxWorkers := flag.Int("max-workers", 4, "master/demo: upper bound of the auto-scaled pool (0 = the master launches no workers; the fleet is the -role worker processes that join)")
	scaleInterval := flag.Duration("scale-interval", 250*time.Millisecond, "master/demo: auto-scaler control period")

	// Streaming ingestion knobs (ingest role).
	requests := flag.Int("requests", 4096, "ingest: serving requests to stream through Scribe->ETL before closing the stream")
	partRows := flag.Int("partition-rows", 512, "ingest: ETL partition seal threshold in rows")

	// Session knobs.
	sessions := flag.Int("sessions", 1, "master/demo: number of pre-created sessions s1..sN (demo tenants get weights 1..N)")
	sessionID := flag.String("session", "", "client/submit: session to consume (client default: s1; submit default: job-<pid>)")
	weight := flag.Float64("weight", 1, "submit: the session's weighted fair share of the fleet")

	// Pipeline knobs. Master, submit and demo roles only: workers pull
	// each session's spec, pipeline sizing included, from its master at
	// registration, so setting these on -role worker has no effect.
	prefetchers := flag.Int("prefetchers", 0, "master/demo: split-evaluator goroutines per worker; the pool runs -prefetchers + -transform-parallelism of them (0 = default 2)")
	xformParallel := flag.Int("transform-parallelism", 0, "master/demo: split-evaluator goroutines per worker, added to -prefetchers (0 = default 2)")
	bufferDepth := flag.Int("buffer", 0, "master/demo: delivered-tensor buffer capacity in batches (0 = default)")
	bufferBytes := flag.Int64("buffer-bytes", 0, "master/demo: byte bound on the delivered-tensor buffer (0 = unbounded)")

	// Cache sizing knobs (the fleet batch cache and the per-warehouse
	// reader cache share this flag family).
	flag.Int64Var(&fleetCacheBytes, "cache-bytes", 0,
		"master/worker/demo/ingest: per-worker content-addressed batch cache budget in bytes (0 = default, negative = disable)")
	flag.IntVar(&readerCacheLimit, "reader-cache", 0,
		"max open DWRF readers cached per warehouse (0 = default, negative = keep none open)")

	// Failure-model knobs. The fault schedule installs on the local
	// synthetic cluster, so it applies to roles that read storage
	// (worker/demo); retry-budget rides the session spec to the master.
	flag.Int64Var(&faultSeed, "fault-seed", 0,
		"install a seeded storage fault storm on the local cluster: every node a little flaky, one corrupting, one slow (0 = faults disabled)")
	retryBudget := flag.Int("retry-budget", 0,
		"master/demo: per-split release budget before the session fails on a persistent storage fault (0 = default)")
	writeFaultSeed := flag.Int64("write-fault-seed", 0,
		"ingest: install a seeded write storm on the streaming loop: scribe torn acks, all nodes write-flaky, one node torn, one down, seals failing (0 = faults disabled)")
	flag.Parse()

	pipeline := dpp.PipelineOptions{
		Prefetchers:          *prefetchers,
		TransformParallelism: *xformParallel,
		MaxBufferedBytes:     *bufferBytes,
	}
	sessionRetryBudget = *retryBudget

	switch *role {
	case "master":
		runServiceMaster(*model, *seed, *addr, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
	case "worker":
		runWorker(*model, *seed, *masterAddr, *addr, *id)
	case "client":
		if *sessionID == "" {
			*sessionID = "s1"
		}
		runClient(*masterAddr, strings.Split(*workerList, ","), *sessionID)
	case "submit":
		runSubmit(*model, *seed, *masterAddr, *sessionID, *weight, pipeline, *bufferDepth)
	case "ingest":
		runIngestDemo(*model, *seed, *requests, *partRows, *writeFaultSeed)
	case "demo":
		if *maxWorkers < 1 {
			log.Fatal("dppd: the demo's fleet is the one it launches; -max-workers must be at least 1")
		}
		runServiceDemo(*model, *seed, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
	default:
		log.Fatalf("dppd: unknown role %q", *role)
	}
}

// tenantSpec assembles one session's spec from the shared workload.
func tenantSpec(spec dpp.SessionSpec, pipeline dpp.PipelineOptions, bufferDepth int, weight float64) dpp.SessionSpec {
	spec.Pipeline = pipeline
	spec.Weight = weight
	if bufferDepth > 0 {
		spec.BufferDepth = bufferDepth
	}
	return spec
}

// newFleetLoop assembles the elastic fleet of a Service served at
// serviceAddr: TCP fleet workers launched over RPC, sized by the
// auto-scaler between the bounds. who prefixes its log lines.
func newFleetLoop(svc *dpp.Service, serviceAddr string, wh *warehouse.Warehouse, minWorkers, maxWorkers int, scaleInterval time.Duration, who string) *dpp.Orchestrator {
	launcher := &dpp.FleetLauncher{
		ServiceAddr: serviceAddr,
		WH:          wh,
		CacheBytes:  fleetCacheBytes,
		OnError: func(id string, err error) {
			log.Printf("%s: worker %s failed: %v", who, id, err)
		},
	}
	o := dpp.NewOrchestrator(svc, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
	o.ScaleInterval = scaleInterval
	o.OnError = func(err error) { log.Printf("%s: %v", who, err) }
	return o
}

// runServiceMaster hosts the Service: n pre-created sessions (s1..sN,
// equal weight; submit adds more at arbitrary weights) over one shared
// elastic fleet of session-aware workers. Manually started -role worker
// processes join the same fleet. A service outlives its sessions, so
// the master runs until killed.
func runServiceMaster(model string, seed int64, addr string, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration, n int) {
	wh, spec := buildWorkload(model, seed)
	svc := dpp.NewService(wh)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := svc.CreateSession(id, tenantSpec(spec, pipeline, bufferDepth, 1)); err != nil {
			log.Fatal(err)
		}
	}
	ln, stop, err := dpp.ServeService(svc, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd master: %d sessions on %s", n, ln.Addr())

	o := newFleetLoop(svc, ln.Addr().String(), wh, minWorkers, maxWorkers, scaleInterval, "dppd master")
	o.CheckpointEvery = 10 * scaleInterval
	go func() {
		if err := o.Run(nil); err != nil {
			log.Fatal(err)
		}
	}()
	for {
		time.Sleep(2 * time.Second)
		infos, err := svc.ListSessions()
		if err != nil {
			log.Fatal(err)
		}
		st := o.Status()
		counts := svc.AssignmentCounts()
		for _, info := range infos {
			log.Printf("dppd master: session %s w=%.1f %d/%d splits, %d workers (target %d)",
				info.ID, info.Weight, info.Completed, info.Total, counts[info.ID], info.Target)
		}
		log.Printf("dppd master: fleet %d launched live (%d draining, peak %d, %d checkpoints), assignments %v",
			st.Live, st.Draining, st.Peak, st.Checkpoints, svc.FleetAssignments())
	}
}

// runSubmit registers a new session at the service, consumes it like a
// trainer, and closes it — the multi-tenant job-submission flow.
func runSubmit(model string, seed int64, masterAddr, sessionID string, weight float64, pipeline dpp.PipelineOptions, bufferDepth int) {
	if sessionID == "" {
		sessionID = fmt.Sprintf("job-%d", os.Getpid())
	}
	_, spec := buildWorkload(model, seed)
	rs, err := dpp.DialService(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	if err := rs.CreateSession(sessionID, tenantSpec(spec, pipeline, bufferDepth, weight)); err != nil {
		log.Fatal(err)
	}
	log.Printf("dppd submit: session %s registered (weight %.1f)", sessionID, weight)
	tr := consumeSession(rs, sessionID)
	if err := rs.CloseSession(sessionID); err != nil {
		log.Printf("dppd submit: close: %v", err)
	}
	log.Printf("dppd submit: session %s consumed %d rows in %d batches (%d bytes), closed", sessionID, tr.RowsConsumed, tr.StepsDone, tr.BytesLoaded)
}

// consumeSession drains one session through a tenant client.
func consumeSession(ctrl dpp.FleetControl, sessionID string) *trainer.Trainer {
	client, err := dpp.NewTenantClient(ctrl, sessionID, dpp.SessionWorkerDialer(sessionID), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 50 * time.Millisecond
	return consume(client)
}

// consume trains on every batch the client delivers.
func consume(client *dpp.Client) *trainer.Trainer {
	tr := trainer.NewTrainer(client)
	if _, err := tr.Run(0); err != nil {
		log.Fatal(err)
	}
	return tr
}

// runServiceDemo hosts the whole flow in one process: the service, its
// shared elastic fleet, and n concurrent tenants with weights 1..n, all
// over real TCP loopback.
func runServiceDemo(model string, seed int64, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration, n int) {
	wh, spec := buildWorkload(model, seed)
	svc := dpp.NewService(wh)
	ln, stop, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	if scaleInterval > 50*time.Millisecond {
		scaleInterval = 50 * time.Millisecond // demo sessions are short
	}
	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	// The sessions exist before the fleet boots, so a launched worker is
	// assigned its share at registration and starts pipelines on its
	// first heartbeat.
	for i := 1; i <= n; i++ {
		if err := rs.CreateSession(fmt.Sprintf("s%d", i), tenantSpec(spec, pipeline, bufferDepth, float64(i))); err != nil {
			log.Fatal(err)
		}
	}
	o := newFleetLoop(svc, ln.Addr().String(), wh, minWorkers, maxWorkers, scaleInterval, "dppd demo")
	o.CheckpointEvery = 2 * scaleInterval
	stopRun := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stopRun) }()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(id string, weight int) {
			defer wg.Done()
			tr := consumeSession(rs, id)
			log.Printf("dppd demo: tenant %s (weight %d) trained on %d rows in %d batches", id, weight, tr.RowsConsumed, tr.StepsDone)
		}(fmt.Sprintf("s%d", i), i)
	}
	wg.Wait()
	close(stopRun)
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
	st := o.Status()
	log.Printf("dppd demo: %d tenants shared one fleet over TCP in %v (peak %d workers, %d launched, %d drained, %d checkpoints)",
		n, time.Since(start).Round(time.Millisecond), st.Peak, st.Launched, st.Drained, st.Checkpoints)
}

// Cache sizing and failure-model settings, set from flags in main: the
// fleet workers' shared batch cache budget, the warehouse's open-reader
// bound, the seeded fault storm, and the per-split release budget.
var (
	fleetCacheBytes    int64
	readerCacheLimit   int
	faultSeed          int64
	sessionRetryBudget int
)

// buildWorkload regenerates the deterministic synthetic dataset and
// session spec for the chosen model.
func buildWorkload(model string, seed int64) (*warehouse.Warehouse, dpp.SessionSpec) {
	p, err := datagen.ProfileByName(model)
	if err != nil {
		log.Fatal(err)
	}
	d, spec, err := BuildWorkload(p, seed)
	if err != nil {
		log.Fatal(err)
	}
	d.SetReaderCacheLimit(readerCacheLimit)
	spec.RetryBudget = sessionRetryBudget
	if faultSeed != 0 {
		cluster := d.Cluster()
		nodes := len(cluster.Nodes())
		sched := faults.NewSchedule(faultSeed)
		for n := 0; n < nodes; n++ {
			sched.Flaky(n, 0, 0, 0.1)
		}
		// Two seeded picks get the heavier roles; recovery is exercised
		// on every node either way since placement is hash-spread.
		corrupt := int(uint64(faultSeed) % uint64(nodes))
		slow := int((uint64(faultSeed) + 1) % uint64(nodes))
		sched.Corrupting(corrupt, 0, 0)
		sched.Slow(slow, 0, 0, 8)
		cluster.SetFaultSchedule(sched)
		log.Printf("dppd: fault storm installed (seed %d): all %d nodes flaky p=0.1, node %d corrupting, node %d slow 8x",
			faultSeed, nodes, corrupt, slow)
	}
	return d, spec
}

// runWorker is a manually started fleet worker: it registers with the
// service at masterAddr, hosts a pipeline for every session the service
// assigns it behind one data-plane listener, and exits when the service
// drains it.
func runWorker(model string, seed int64, masterAddr, addr, id string) {
	wh, _ := buildWorkload(model, seed)
	rs, err := dpp.DialService(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	fw, stop, err := dpp.ListenAndServeFleetWorker(id, addr, rs, wh, func(fw *dpp.FleetWorker) {
		fw.CacheBytes = fleetCacheBytes
		fw.OnError = func(session string, err error) {
			log.Printf("dppd worker %s: session %s pipeline failed: %v", id, session, err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd worker %s: serving tensors on %s", id, fw.Endpoint)
	if err := fw.Run(nil); err != nil {
		log.Fatal(err)
	}
	log.Printf("dppd worker %s: drained by the service, retired", id)
}

// runClient consumes one session like a trainer: over the worker
// membership the service resolves for it, or over a static list of
// fleet worker addresses.
func runClient(masterAddr string, addrs []string, sessionID string) {
	var apis []dpp.WorkerAPI
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		rw, err := dpp.DialWorkerFramedSession(a, sessionID)
		if err != nil {
			log.Fatal(err)
		}
		defer rw.Close()
		apis = append(apis, rw)
	}
	var tr *trainer.Trainer
	if len(apis) == 0 {
		rs, err := dpp.DialService(masterAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		log.Printf("dppd client: joining session %s via %s", sessionID, masterAddr)
		tr = consumeSession(rs, sessionID)
	} else {
		client, err := dpp.NewClient(apis, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		tr = consume(client)
	}
	log.Printf("dppd client: consumed %d rows in %d batches (%d bytes)", tr.RowsConsumed, tr.StepsDone, tr.BytesLoaded)
}
