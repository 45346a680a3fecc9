// Command dppd runs DPP components as networked processes over TCP,
// demonstrating the disaggregated deployment of §3.2.1: a Master serving
// splits, stateless Workers preprocessing them, and a Client (standing in
// for a trainer) consuming tensors.
//
// The master role can run the closed scaling loop itself: with
// -max-workers set it hosts an Orchestrator that elastically launches
// and drains RPC-served workers to track trainer demand. Clients resolve
// the live worker membership from the master (-master), so connections
// rebalance as the pool resizes; a static -workers list remains
// supported for manually operated fleets.
//
// Because the module is self-contained and offline, every role
// regenerates the same deterministic synthetic dataset locally (seeded by
// -seed), standing in for shared access to the Tectonic cluster.
//
// With -sessions > 1 the master hosts the multi-tenant Service: one
// shared elastic fleet of session-aware workers serves several
// concurrent sessions, dividing capacity by weighted fair share. The
// submit role registers a new session over RPC (its -weight is its
// fleet share), consumes it like a trainer, and closes it on
// completion; the client role joins an existing session with -session.
//
// Usage:
//
//	dppd -role master -addr :7070 -min-workers 1 -max-workers 8
//	dppd -role worker -master localhost:7070 -addr :7071   # extra manual worker
//	dppd -role client -master localhost:7070
//	dppd -role client -workers localhost:7071,localhost:7072
//	dppd -role demo            # all roles in one process, elastic pool
//
//	dppd -role master -sessions 2 -max-workers 8   # multi-tenant service
//	dppd -role submit -master localhost:7070 -session mine -weight 3
//	dppd -role client -master localhost:7070 -session s1
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
	"dsi/internal/warehouse"
)

func main() {
	role := flag.String("role", "demo", "master | worker | client | demo | ingest")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (master/worker)")
	masterAddr := flag.String("master", "127.0.0.1:7070", "master address (worker/client)")
	workerList := flag.String("workers", "", "comma-separated worker addresses (client; overrides -master resolution)")
	model := flag.String("model", "RM1", "workload profile: RM1, RM2, or RM3")
	seed := flag.Int64("seed", 1, "dataset seed (must match across roles)")
	id := flag.String("id", fmt.Sprintf("worker-%d", os.Getpid()), "worker ID")

	// Elastic control plane knobs (master/demo roles).
	minWorkers := flag.Int("min-workers", 1, "master/demo: lower bound of the auto-scaled pool")
	maxWorkers := flag.Int("max-workers", 0, "master/demo: upper bound of the auto-scaled pool (0 = master does not launch workers)")
	scaleInterval := flag.Duration("scale-interval", 250*time.Millisecond, "master/demo: auto-scaler control period")

	// Streaming ingestion knobs (ingest role).
	requests := flag.Int("requests", 4096, "ingest: serving requests to stream through Scribe->ETL before closing the stream")
	partRows := flag.Int("partition-rows", 512, "ingest: ETL partition seal threshold in rows")

	// Multi-tenant knobs.
	sessions := flag.Int("sessions", 1, "master/demo: number of pre-created sessions (>1 hosts the multi-tenant service; demo tenants get weights 1..N)")
	sessionID := flag.String("session", "", "client/submit: session to consume (submit default: job-<pid>)")
	weight := flag.Float64("weight", 1, "submit: the session's weighted fair share of the fleet")

	// Pipeline knobs. Master and demo roles only: workers pull the
	// session spec, pipeline sizing included, from the master at
	// registration, so setting these on -role worker has no effect.
	prefetchers := flag.Int("prefetchers", 0, "master/demo: split fetch+decode goroutines per worker (0 = default)")
	prefetchDepth := flag.Int("prefetch-depth", 0, "master/demo: decoded splits buffered ahead of the transform stage (0 = default)")
	xformParallel := flag.Int("transform-parallelism", 0, "master/demo: concurrent transform-graph goroutines per worker (0 = default)")
	bufferDepth := flag.Int("buffer", 0, "master/demo: delivered-tensor buffer capacity in batches (0 = default)")
	bufferBytes := flag.Int64("buffer-bytes", 0, "master/demo: byte bound on the delivered-tensor buffer (0 = unbounded)")

	// Cache sizing knobs (the fleet batch cache and the per-warehouse
	// reader cache share this flag family).
	flag.Int64Var(&fleetCacheBytes, "cache-bytes", 0,
		"master/demo: per-worker content-addressed batch cache budget in bytes (0 = default, negative = disable)")
	flag.IntVar(&readerCacheLimit, "reader-cache", 0,
		"max open DWRF readers cached per warehouse (0 = default)")

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
		PrefetchDepth:        *prefetchDepth,
		TransformParallelism: *xformParallel,
		MaxBufferedBytes:     *bufferBytes,
	}
	sessionRetryBudget = *retryBudget

	switch *role {
	case "master":
		if *sessions > 1 {
			runServiceMaster(*model, *seed, *addr, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
		} else {
			runMaster(*model, *seed, *addr, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval)
		}
	case "worker":
		runWorker(*model, *seed, *masterAddr, *addr, *id)
	case "client":
		runClient(*masterAddr, strings.Split(*workerList, ","), *sessionID)
	case "submit":
		runSubmit(*model, *seed, *masterAddr, *sessionID, *weight, pipeline, *bufferDepth)
	case "ingest":
		runIngestDemo(*model, *seed, *requests, *partRows, *writeFaultSeed)
	case "demo":
		if *sessions > 1 {
			runServiceDemo(*model, *seed, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
		} else {
			runDemo(*model, *seed, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval)
		}
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

// runServiceMaster hosts the multi-tenant Service: n pre-created
// sessions (s1..sN, equal weight; submit adds more at arbitrary
// weights) over one shared elastic fleet of session-aware workers.
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
	log.Printf("dppd service: %d sessions on %s", n, ln.Addr())

	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	launcher := &dpp.RPCFleetLauncher{
		ServiceAddr: ln.Addr().String(),
		WH:          wh,
		CacheBytes:  fleetCacheBytes,
		OnError: func(id string, err error) {
			log.Printf("dppd service: worker %s failed: %v", id, err)
		},
	}
	o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
	o.ScaleInterval = scaleInterval
	o.CheckpointEvery = 10 * scaleInterval
	o.OnError = func(err error) { log.Printf("dppd service: %v", err) }
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
			log.Printf("dppd service: session %s w=%.1f %d/%d splits, %d workers (target %d)",
				info.ID, info.Weight, info.Completed, info.Total, counts[info.ID], info.Target)
		}
		log.Printf("dppd service: fleet %d live (%d draining, peak %d)", st.Live, st.Draining, st.Peak)
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
	rows, batches, bytes := consumeSession(rs, sessionID)
	if err := rs.CloseSession(sessionID); err != nil {
		log.Printf("dppd submit: close: %v", err)
	}
	log.Printf("dppd submit: session %s consumed %d rows in %d batches (%d bytes), closed", sessionID, rows, batches, bytes)
}

// consumeSession drains one session through a tenant client.
func consumeSession(ctrl dpp.FleetControl, sessionID string) (rows int64, batches, bytes int64) {
	client, err := dpp.NewTenantClient(ctrl, sessionID, dpp.SessionWorkerDialer(sessionID), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 50 * time.Millisecond
	for {
		b, ok, err := client.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		rows += int64(b.Rows)
		b.Release()
	}
	return rows, client.BatchesFetched, client.BytesFetched
}

// runServiceDemo hosts the whole multi-tenant flow in one process: the
// service, its shared elastic fleet, and n concurrent tenants with
// weights 1..n, all over real TCP loopback.
func runServiceDemo(model string, seed int64, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration, n int) {
	wh, spec := buildWorkload(model, seed)
	svc := dpp.NewService(wh)
	ln, stop, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	if minWorkers < 1 {
		minWorkers = 1
	}
	launcher := &dpp.RPCFleetLauncher{
		ServiceAddr: ln.Addr().String(),
		WH:          wh,
		CacheBytes:  fleetCacheBytes,
		OnError: func(id string, err error) {
			log.Printf("dppd demo: worker %s failed: %v", id, err)
		},
	}
	o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
	o.ScaleInterval = scaleInterval
	if o.ScaleInterval > 50*time.Millisecond {
		o.ScaleInterval = 50 * time.Millisecond // demo sessions are short
	}
	o.CheckpointEvery = 2 * o.ScaleInterval
	o.OnError = func(err error) { log.Printf("dppd demo: %v", err) }
	stopRun := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stopRun) }()

	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := rs.CreateSession(id, tenantSpec(spec, pipeline, bufferDepth, float64(i))); err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id string, weight int) {
			defer wg.Done()
			rows, batches, _ := consumeSession(rs, id)
			log.Printf("dppd demo: tenant %s (weight %d) trained on %d rows in %d batches", id, weight, rows, batches)
		}(id, i)
	}
	wg.Wait()
	close(stopRun)
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
	st := o.Status()
	log.Printf("dppd demo: %d tenants shared one fleet over TCP in %v (peak %d workers, %d launched, %d drained)",
		n, time.Since(start).Round(time.Millisecond), st.Peak, st.Launched, st.Drained)
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

func runMaster(model string, seed int64, addr string, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration) {
	wh, spec := buildWorkload(model, seed)
	spec.Pipeline = pipeline
	if bufferDepth > 0 {
		spec.BufferDepth = bufferDepth
	}
	m, err := dpp.NewMaster(wh, spec)
	if err != nil {
		log.Fatal(err)
	}
	ln, stop, err := dpp.ServeMaster(m, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd master: %d splits on %s", m.SplitCount(), ln.Addr())

	if maxWorkers > 0 {
		// Elastic mode: the master operates its own worker fleet over
		// RPC, auto-scaling between the bounds. Manually started
		// -role worker processes still join and are managed alongside.
		launcher := &dpp.RPCLauncher{
			MasterAddr: ln.Addr().String(),
			WH:         wh,
			OnError: func(id string, err error) {
				log.Printf("dppd master: worker %s failed: %v", id, err)
			},
		}
		o := dpp.NewOrchestrator(m, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
		o.ScaleInterval = scaleInterval
		o.CheckpointEvery = 10 * scaleInterval
		o.OnError = func(err error) { log.Printf("dppd master: %v", err) }
		runDone := make(chan error, 1)
		go func() { runDone <- o.Run(nil) }()
		for {
			select {
			case err := <-runDone:
				if err != nil {
					log.Fatal(err)
				}
				st := o.Status()
				log.Printf("dppd master: session complete (peak %d workers, %d launched, %d drained, %d checkpoints)",
					st.Peak, st.Launched, st.Drained, st.Checkpoints)
				// Linger briefly so clients confirm completion over RPC
				// instead of finding a closed connection.
				time.Sleep(2 * time.Second)
				return
			case <-time.After(2 * time.Second):
				completed, total := m.Progress()
				st := o.Status()
				log.Printf("dppd master: %d/%d splits complete, %d live workers (%d draining, peak %d)",
					completed, total, st.Live, st.Draining, st.Peak)
			}
		}
	}

	// Static mode: external workers join; the master only tracks
	// progress and reaps the dead.
	for {
		done, _ := m.Done()
		completed, total := m.Progress()
		log.Printf("dppd master: %d/%d splits complete, %d workers", completed, total, m.WorkerCount())
		if done {
			log.Print("dppd master: session complete")
			return
		}
		m.ReapDead()
		time.Sleep(2 * time.Second)
	}
}

func runWorker(model string, seed int64, masterAddr, addr, id string) {
	wh, _ := buildWorkload(model, seed)
	remote, err := dpp.DialMaster(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	w, stop, err := dpp.ListenAndServeWorker(id, addr, remote, wh, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd worker %s: serving tensors on %s", id, w.Endpoint)
	if err := w.Run(nil); err != nil {
		log.Fatal(err)
	}
	rep := w.Report()
	stage := w.Stats().Stage
	log.Printf("dppd worker %s: done, %d splits, %d rows, %d batches",
		id, rep.SplitsDone, rep.RowsOut, rep.BatchesOut)
	log.Printf("dppd worker %s: stage busy fetch %.3fs decode %.3fs transform %.3fs deliver %.3fs",
		id, stage.FetchSeconds, stage.DecodeSeconds, stage.TransformSeconds, stage.DeliverSeconds)
	// Serve until the buffer drains, then leave the session's membership
	// so clients drop the connection cleanly.
	if err := w.Retire(nil); err != nil {
		log.Printf("dppd worker %s: retire: %v", id, err)
	}
	log.Printf("dppd worker %s: retired", id)
}

func runClient(masterAddr string, addrs []string, sessionID string) {
	if sessionID != "" {
		// Multi-tenant: join one session of a served Service.
		rs, err := dpp.DialService(masterAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		log.Printf("dppd client: joining session %s via %s", sessionID, masterAddr)
		rows, batches, bytes := consumeSession(rs, sessionID)
		log.Printf("dppd client: consumed %d rows in %d batches (%d bytes)", rows, batches, bytes)
		return
	}
	var (
		client *dpp.Client
		err    error
	)
	static := false
	for _, a := range addrs {
		if strings.TrimSpace(a) != "" {
			static = true
			break
		}
	}
	if static {
		var apis []dpp.WorkerAPI
		for _, a := range addrs {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			rw, err := dpp.DialWorkerFramed(a)
			if err != nil {
				log.Fatal(err)
			}
			if closer, ok := rw.(interface{ Close() error }); ok {
				defer closer.Close()
			}
			apis = append(apis, rw)
		}
		client, err = dpp.NewClient(apis, 0, 0)
	} else {
		remote, derr := dpp.DialMaster(masterAddr)
		if derr != nil {
			log.Fatal(derr)
		}
		defer remote.Close()
		log.Printf("dppd client: resolving workers via master %s", masterAddr)
		client, err = dpp.NewSessionClient(remote, dpp.DialWorkerEndpointFramed, 0, 0)
		if client != nil {
			client.RefreshEvery = 50 * time.Millisecond
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	var rows int64
	for {
		b, ok, err := client.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		rows += int64(b.Rows)
		b.Release()
	}
	log.Printf("dppd client: consumed %d rows in %d batches (%d bytes)",
		rows, client.BatchesFetched, client.BytesFetched)
}

// runDemo hosts an elastic master, its orchestrated worker pool, and a
// membership-resolving client in one process, all over real TCP
// loopback connections.
func runDemo(model string, seed int64, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration) {
	wh, spec := buildWorkload(model, seed)
	spec.Pipeline = pipeline
	if bufferDepth > 0 {
		spec.BufferDepth = bufferDepth
	}
	m, err := dpp.NewMaster(wh, spec)
	if err != nil {
		log.Fatal(err)
	}
	mln, stopM, err := dpp.ServeMaster(m, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stopM()
	log.Printf("dppd demo: master on %s with %d splits", mln.Addr(), m.SplitCount())

	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	if minWorkers < 1 {
		minWorkers = 1
	}
	launcher := &dpp.RPCLauncher{
		MasterAddr: mln.Addr().String(),
		WH:         wh,
		OnError: func(id string, err error) {
			log.Printf("dppd demo: worker %s failed: %v", id, err)
		},
	}
	o := dpp.NewOrchestrator(m, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
	o.ScaleInterval = scaleInterval
	if o.ScaleInterval > 50*time.Millisecond {
		o.ScaleInterval = 50 * time.Millisecond // demo sessions are short
	}
	o.CheckpointEvery = 2 * o.ScaleInterval
	o.OnError = func(err error) { log.Printf("dppd demo: %v", err) }
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(nil) }()

	remote, err := dpp.DialMaster(mln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	client, err := dpp.NewSessionClient(remote, dpp.DialWorkerEndpointFramed, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 5 * time.Millisecond

	var rows int64
	start := time.Now()
	for {
		b, ok, err := client.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		rows += int64(b.Rows)
		b.Release()
	}
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
	st := o.Status()
	log.Printf("dppd demo: trained on %d rows in %d batches over TCP in %v",
		rows, client.BatchesFetched, time.Since(start).Round(time.Millisecond))
	log.Printf("dppd demo: elastic pool peaked at %d workers (%d launched, %d drained, %d checkpoints)",
		st.Peak, st.Launched, st.Drained, st.Checkpoints)
}
