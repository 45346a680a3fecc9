package main

import "time"

// metricDef names one metric. BENCHMARK.json at the root of the repo
// lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the tracing-off window. The bounds come from two sets of
// ten runs of one commit on the two-core reference host (README.md has the
// table): the timing bounds are as wide as the contract allows because the
// host itself ran up to 21% slower in one set than in the other; the
// others are three times the widest run-to-run spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"cpu_ns_per_row", "ns", "lower", 0.25},
	{"alloc_bytes_per_row", "B", "lower", 0.05},
	{"allocs_per_row", "count", "lower", 0.05},
	{"stored_bytes_per_row", "B", "lower", 0.04},
	{"freshness_p50_ms", "ms", "lower", 0.25},
}

// stages are the layers the traced run times, in pipeline order. Each
// reports S.ns_per_row, S.alloc_bytes_per_row and S.share.
var stages = []string{
	"datagen.sample", "datagen.encode", "scribe.log", "logdevice.append",
	"etl.join", "dwrf.encode", "tectonic.append", "etl.cursor",
	"dpp.lease", "tectonic.read", "dwrf.decode.plain", "dwrf.decode.dict",
	"ware.probe", "transforms.run", "tensor.materialize",
	"tensor.wire_encode", "dpp.wire", "tensor.wire_decode", "trainer.consume",
}

// counterMetrics are read from the program's exported counters after the
// tracing-off window, plus what the load generator and the process
// itself measured over it.
var counterMetrics = []metricDef{
	{Name: "trace.residual_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "dpp.worker.fetch_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "dpp.worker.decode_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "dpp.worker.transform_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "dpp.worker.deliver_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "ware.hit_rate", Unit: "frac", Better: "higher"},
	{Name: "ware.evictions", Unit: "count", Better: "lower"},
	{Name: "ware.bytes_saved_per_row", Unit: "B", Better: "higher"},
	{Name: "dwrf.read_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "dwrf.overread_frac", Unit: "frac", Better: "lower"},
	{Name: "tensor.wire_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "scribe.shed", Unit: "count", Better: "lower"},
	{Name: "scribe.dropped", Unit: "count", Better: "lower"},
	{Name: "etl.poisoned", Unit: "count", Better: "lower"},
	{Name: "etl.write_retries", Unit: "count", Better: "lower"},
	{Name: "tectonic.read_retries", Unit: "count", Better: "lower"},
	{Name: "dpp.splits_released", Unit: "count", Better: "lower"},
	{Name: "etl.backlog_rows_end", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "dpp.freshness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "dpp.stale_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
}

// perLayer is every per-layer metric, in the order they are printed.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range stages {
		defs = append(defs,
			metricDef{Name: s + ".ns_per_row", Unit: "ns", Better: "lower"},
			metricDef{Name: s + ".alloc_bytes_per_row", Unit: "B", Better: "lower"},
			metricDef{Name: s + ".share", Unit: "frac", Better: "lower"},
		)
	}
	return append(defs, counterMetrics...)
}

// passResult is one pass of a pass-based workload: what it cost, and the
// workload's freshness figure for it in ms.
type passResult struct {
	cost    cost
	freshMs float64
}

// outcome is everything one workload run measured.
type outcome struct {
	oracle *oracle
	// e2e holds each end-to-end metric as a median with quartiles over
	// passes (n = 1 for a count that is exact for the seed).
	e2e map[string]summary
	// layers holds per-layer metrics; a stage that is not on the
	// workload's path stays 0.
	layers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{oracle: &oracle{}, e2e: map[string]summary{}, layers: map[string]float64{}}
}

// setupRepeats is how many times a run sets up, so that setup_s is a
// median and not one draw.
const setupRepeats = 3

// setUp times build — environment construction plus the untimed warm-up
// pass — setupRepeats times. The last build's environment is the one the
// run goes on to measure.
func (o *outcome) setUp(cfg config, build func() error) error {
	repeats := setupRepeats
	if cfg.reduced {
		repeats = 1
	}
	var took []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		took = append(took, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = summarize(took)
	// Counters from warm-up passes are not part of the window.
	clear(o.layers)
	return nil
}

// timedPasses repeats pass until the window is used up and returns each
// pass's result and the cost of the whole window.
func timedPasses(cfg config, pass func() (passResult, error)) ([]passResult, cost, error) {
	var passes []passResult
	start := readUsage()
	deadline := start.at.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var rows int64
	for {
		p, err := pass()
		if err != nil {
			return nil, cost{}, err
		}
		passes = append(passes, p)
		rows += p.cost.rows
		if cfg.reduced || !time.Now().Before(deadline) {
			break
		}
	}
	return passes, readUsage().since(start, rows), nil
}

func exact(v float64) summary { return summary{Value: v, Median: v, Q1: v, Q3: v, N: 1} }

// firstQuartile reports a sample of CPU costs as its first quartile: the
// pass a quarter of the way in from the cheapest. The host is shared, and
// what its other tenants do to a pass's CPU time (a busy sibling thread,
// evicted cache lines, steal booked to the process) only ever adds to it,
// so across runs of one commit the first quartile of the passes spread
// less than their median in 13 of 16 sets of ten runs, by about a quarter;
// wall-clock figures showed no such asymmetry and stay medians. A change to
// the program moves every pass, so it moves this figure as it moves the
// median.
func firstQuartile(s summary) summary {
	s.Value = s.Q1
	return s
}

// reportPasses turns passes into the end-to-end metrics: the median over
// passes, except CPU per row, which is the first quartile.
func (o *outcome) reportPasses(passes []passResult, storedBytesPerRow float64) {
	column := func(f func(passResult) float64) summary {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return summarize(xs)
	}
	o.e2e["rows_per_s"] = column(func(p passResult) float64 { return p.cost.rowsPerSec() })
	o.e2e["cpu_ns_per_row"] = firstQuartile(column(func(p passResult) float64 { return p.cost.cpuNsPerRow() }))
	o.e2e["freshness_p50_ms"] = column(func(p passResult) float64 { return p.freshMs })
	o.e2e["alloc_bytes_per_row"] = column(func(p passResult) float64 { return p.cost.allocBPerRow() })
	o.e2e["allocs_per_row"] = column(func(p passResult) float64 { return p.cost.allocsPerRow() })
	o.e2e["stored_bytes_per_row"] = exact(storedBytesPerRow)
}

// reportProcess records what the process as a whole spent over the
// tracing-off window.
func (o *outcome) reportProcess(window cost) {
	o.layers["proc.peak_rss_mb"] = readUsage().peakRSSMB
	o.layers["proc.gc_cpu_frac"] = window.gcCPUFraction()
}
