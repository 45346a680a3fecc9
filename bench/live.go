package main

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/tensor"
	"dsi/internal/ware"
)

// openLoop is the load generator's schedule: tick i is due at
// start+i*period whatever the system under test is doing. A tick that
// cannot fire on time fires as soon as it can and is recorded as late;
// none is skipped, so a stall shows up as lateness and then as backlog,
// never as less load.
type openLoop struct {
	start  time.Time
	period time.Duration
	now    func() time.Time
	sleep  func(time.Duration)
	lateMs []float64
}

func (l *openLoop) due(i int) time.Time { return l.start.Add(time.Duration(i) * l.period) }

// wait blocks until tick i is due, records how late it fires and
// returns its due time — the time the tick's events are stamped with, so
// freshness counts the generator's own lateness against the system.
func (l *openLoop) wait(i int) time.Time {
	due := l.due(i)
	if d := due.Sub(l.now()); d > 0 {
		l.sleep(d)
	}
	late := l.now().Sub(due)
	if late < 0 {
		late = 0
	}
	l.lateMs = append(l.lateMs, float64(late)/float64(time.Millisecond))
	return due
}

// liveShape sizes the live loop.
type liveShape struct {
	period      time.Duration
	perTick     int
	warmupTicks int
	// sliceTicks cuts the window into this workload's passes: stretches
	// of the schedule that publish a whole number of stripes.
	sliceTicks int
	ingest     ingestShape
	batchSize  int
	cacheBytes int64
	tenants    []string
}

func liveShapeFor(cfg config) (liveShape, int) {
	s := liveShape{
		// 30 requests every 50 ms = 600 rows/s, about half of what
		// ingest_write sustains with the machine to itself, which leaves
		// the other core for the two tenants' readers.
		period: 50 * time.Millisecond, perTick: 30, warmupTicks: 40, sliceTicks: 32,
		ingest:    ingestShape{partitionRows: 256, stripeRows: 64},
		batchSize: 64, cacheBytes: 64 << 20,
		tenants: []string{"tenant-a", "tenant-b"},
	}
	ticks := s.warmupTicks + int(cfg.seconds/s.period.Seconds())
	if cfg.reduced {
		s.period, s.perTick, s.warmupTicks, s.sliceTicks = 10*time.Millisecond, 8, 4, 4
		s.ingest = ingestShape{partitionRows: 32, stripeRows: 32}
		s.batchSize = 32
		ticks = 16
	}
	return s, ticks
}

// liveTenant is one tenant tailing the table: its session and what its
// trainer has consumed.
type liveTenant struct {
	session *session
	got     *tensor.ContentSum
	err     error
}

// runLiveLoop is the live_loop workload: the whole loop at once, open
// loop. The generator publishes on a fixed schedule into Scribe, a live
// ETL seals partitions, and two tenants tail the table until the
// producer closes the stream and everything drains.
func runLiveLoop(cfg config) (*outcome, error) {
	shape, ticks := liveShapeFor(cfg)
	shape.ingest.requests = ticks * shape.perTick
	out := newOutcome()

	spec := sessionSpec(ingestModel, true, shape.batchSize)
	want, err := servedDelivered(cfg.seed, shape.ingest.requests, spec)
	if err != nil {
		return nil, err
	}

	// Set-up: the environment, the ETL, the tenants, and the first
	// warmupTicks at rate. The timed window opens at the first tick after
	// them.
	setupStart := time.Now()
	env, err := newIngestEnv(cfg.seed, shape.ingest)
	if err != nil {
		return nil, err
	}
	etlDone := make(chan error, 1)
	go func() { etlDone <- env.pipe.Run(nil) }()

	cache := ware.NewCache(shape.cacheBytes)
	tailing := make([]*liveTenant, len(shape.tenants))
	var consumers sync.WaitGroup
	for i, name := range shape.tenants {
		s, err := startSession(env.wh, spec, name, 1, cache)
		if err != nil {
			return nil, err
		}
		t := &liveTenant{session: s, got: tensor.NewContentSum()}
		tailing[i] = t
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			if t.err = s.drain(t.got); t.err != nil {
				s.stop()
				return
			}
			t.err = s.finish()
		}()
	}

	loop := &openLoop{start: time.Now(), period: shape.period, now: time.Now, sleep: time.Sleep}
	var due time.Time
	env.sim.Now = func() int64 { return due.UnixNano() }
	var marks []usage // the process's usage at the start of each slice
	var windowOpens time.Time
	for i := 0; i < ticks; i++ {
		due = loop.wait(i)
		if i == shape.warmupTicks {
			windowOpens = due
			out.e2e["setup_s"] = exact(time.Since(setupStart).Seconds())
			loop.lateMs = loop.lateMs[:0]
		}
		if j := i - shape.warmupTicks; j >= 0 && j%shape.sliceTicks == 0 {
			marks = append(marks, readUsage())
		}
		if err := env.sim.ServeRequests(shape.perTick); err != nil {
			return nil, fmt.Errorf("tick %d: %w", i, err)
		}
	}
	// Backlog when the producer stops: requests published but not yet
	// joined. At a sustainable rate this is about one tick's worth
	// however long the run was.
	backlog := env.sim.RequestsServed() - env.pipe.Joiner.Joined.Value()
	if err := env.sim.Close(env.bus); err != nil {
		return nil, fmt.Errorf("close stream: %w", err)
	}
	if err := <-etlDone; err != nil {
		return nil, fmt.Errorf("etl: %w", err)
	}
	consumers.Wait()
	timedRows := int64((ticks - shape.warmupTicks) * shape.perTick * len(tailing))
	window := readUsage().since(marks[0], timedRows)
	sessionWall := time.Since(setupStart)

	// The CPU of each whole slice, per row the slice offered to the
	// tenants: in a steady loop that is the work the slice did.
	sliceRows := int64(shape.sliceTicks * shape.perTick * len(tailing))
	var sliceCPU []float64
	for k := 1; k < len(marks); k++ {
		sliceCPU = append(sliceCPU, marks[k].since(marks[k-1], sliceRows).cpuNsPerRow())
	}
	if len(sliceCPU) == 0 { // a window shorter than one slice
		sliceCPU = []float64{window.cpuNsPerRow()}
	}

	var counters readCounters
	var freshMs, staleMs []float64
	for _, t := range tailing {
		if t.err != nil {
			return nil, t.err
		}
		out.oracle.checkDigest(t.session.tenant, t.got, want)
		counters.addSession(t.session, sessionWall)
		for _, fs := range t.session.master.FreshnessSamples() {
			if fs.MaxEventTime < windowOpens.UnixNano() {
				continue // sealed from warm-up traffic
			}
			freshMs = append(freshMs, float64(fs.FreshLag())/float64(time.Millisecond))
			staleMs = append(staleMs, float64(fs.StaleLag())/float64(time.Millisecond))
		}
	}
	env.checkWritePath(out.oracle, int64(shape.ingest.requests))
	if len(freshMs) == 0 {
		return nil, fmt.Errorf("no freshness sample in the timed window")
	}

	// Every row offered in the window was delivered to every tenant (the
	// oracle just checked), so rows completed is exact and the metrics
	// move only with how long the loop took to finish them.
	out.e2e["rows_per_s"] = exact(window.rowsPerSec())
	out.e2e["cpu_ns_per_row"] = firstQuartile(summarize(sliceCPU))
	out.e2e["alloc_bytes_per_row"] = exact(window.allocBPerRow())
	out.e2e["allocs_per_row"] = exact(window.allocsPerRow())
	out.e2e["stored_bytes_per_row"] = exact(float64(env.cluster.LogicalBytes()) / float64(env.pipe.RowsWritten.Value()))
	out.e2e["freshness_p50_ms"] = summarize(freshMs)

	out.reportProcess(window)
	env.faultCounters(out.layers)
	counters.report(out.layers, cache, ware.Stats{})
	out.layers["etl.backlog_rows_end"] = float64(backlog)
	out.layers["loadgen.late_p95_ms"] = percentile(loop.lateMs, 0.95)
	// p95 at full length (>= 200 samples); a shorter run reports the
	// highest percentile its sample count supports under the same name.
	out.layers["dpp.freshness_p95_ms"] = percentile(freshMs, min(0.95, highestSupportedPercentile(len(freshMs))))
	out.layers["dpp.stale_p50_ms"] = median(staleMs)
	if cfg.trace {
		if err := traceLiveLoop(cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
