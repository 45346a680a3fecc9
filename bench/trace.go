package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer. Spans of one partition (ingest
// chain) or one split (read chain) share Trace; Parent is the span whose
// call contained this one, 0 for none. Times are nanoseconds on the
// trace clock, which stops while the benchmark does work of its own.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Trace      string `json:"trace"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Rows       int64  `json:"rows"`
	// Probe marks a child that was not observed in place: the nested
	// layer's call is invisible from outside its caller, so the benchmark
	// replayed the same inputs straight into the nested layer, off the
	// clock, and filed the measured duration inside the caller's span.
	Probe bool `json:"probe,omitempty"`
}

// tracer records spans in memory; the traced run is single-threaded, so
// spans nest or follow one another and never interleave.
type tracer struct {
	origin    time.Time
	paused    time.Duration
	cpuPaused time.Duration
	cpuStart  time.Duration
	spans     []span
	// placed is how much of each parent's interval its probe children
	// already occupy; they are laid end to end from the parent's start.
	placed map[int]int64
}

var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is cheap enough (well under 1 µs) to read around every span,
// unlike runtime.ReadMemStats. It lags by what sits in per-P caches, which
// evens out over the hundreds of spans a stage total sums.
func heapAllocs() uint64 {
	metrics.Read(heapAllocSample)
	if heapAllocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapAllocSample[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	return rusageCPU(ru)
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cpuStart: processCPU(), placed: map[int]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin) - t.paused) }

// begin opens a span and returns its id. rows is how many rows the call
// handles, 0 when another span of the same stage already counts them.
func (t *tracer) begin(name, trace string, rows int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Trace: trace, Rows: rows, AllocBytes: heapAllocs()})
	s := &t.spans[len(t.spans)-1]
	s.StartNs = t.now()
	return s.ID
}

// at returns span id, so a caller can fill in what it only learns after
// the span has ended (a lease's split, a read's row count).
func (t *tracer) at(id int) *span { return &t.spans[id-1] }

func (t *tracer) end(id int) {
	now := t.now()
	s := t.at(id)
	s.EndNs = now
	s.AllocBytes = heapAllocs() - s.AllocBytes
}

// in times f as one span.
func (t *tracer) in(name, trace string, rows int64, f func() error) (int, error) {
	id := t.begin(name, trace, rows)
	err := f()
	t.end(id)
	return id, err
}

// offClock runs benchmark-side work (verification, preparing a probe's
// inputs) with the trace clock and the CPU meter stopped.
func (t *tracer) offClock(f func() error) error {
	start, cpu := time.Now(), processCPU()
	err := f()
	t.paused += time.Since(start)
	t.cpuPaused += processCPU() - cpu
	return err
}

// probe replays a nested layer's work off the clock and files what it
// took as a child of parent, which must already have ended.
func (t *tracer) probe(parent int, name string, rows int64, f func() error) error {
	var took time.Duration
	var alloc uint64
	err := t.offClock(func() error {
		a, start := heapAllocs(), time.Now()
		err := f()
		took, alloc = time.Since(start), heapAllocs()-a
		return err
	})
	t.child(parent, name, rows, took, alloc)
	return err
}

// child files a child of known duration inside parent, after any earlier
// ones, cut off at the parent's end.
func (t *tracer) child(parent int, name string, rows int64, took time.Duration, alloc uint64) {
	p := *t.at(parent)
	start := p.StartNs + t.placed[parent]
	end := min(start+int64(took), p.EndNs)
	t.placed[parent] = end - p.StartNs
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Trace: p.Trace,
		StartNs: start, EndNs: end, AllocBytes: min(alloc, p.AllocBytes), Rows: rows, Probe: true,
	})
}

// stageTotal is one stage's share of the traced run.
type stageTotal struct {
	selfNs    int64
	selfAlloc uint64
	rows      int64
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// totals sums self time, self allocation and rows per stage, and returns
// the traced wall (first span start to last span end) and how much of it
// no span covers.
func (t *tracer) totals() (byStage map[string]stageTotal, wallNs, residualNs int64) {
	byStage = map[string]stageTotal{}
	if len(t.spans) == 0 {
		return byStage, 0, 0
	}
	self := selfTimes(t.spans)
	childAlloc := map[int]uint64{}
	for _, s := range t.spans {
		childAlloc[s.Parent] += s.AllocBytes
	}
	first, last, inSpans := t.spans[0].StartNs, int64(0), int64(0)
	for _, s := range t.spans {
		st := byStage[s.Name]
		st.selfNs += self[s.ID]
		st.selfAlloc += s.AllocBytes - min(childAlloc[s.ID], s.AllocBytes)
		st.rows += s.Rows
		byStage[s.Name] = st
		if s.Parent == 0 {
			inSpans += s.EndNs - s.StartNs
			first, last = min(first, s.StartNs), max(last, s.EndNs)
		}
	}
	wallNs = last - first
	return byStage, wallNs, wallNs - inSpans
}

// cpu is the process CPU the traced run has used, probes excluded.
func (t *tracer) cpu() time.Duration { return processCPU() - t.cpuStart - t.cpuPaused }

// report fills the per-stage metrics and the trace's own two, and writes
// the span file. completedRows is how many rows the traced run completed;
// its CPU per row is compared with the tracing-off window's.
func (t *tracer) report(cfg config, workload string, out *outcome, completedRows int64) error {
	tracedCPU := t.cpu()
	byStage, wallNs, residualNs := t.totals()
	for _, name := range stages {
		st := byStage[name]
		out.layers[name+".ns_per_row"] = ratio(float64(st.selfNs), float64(st.rows))
		out.layers[name+".alloc_bytes_per_row"] = ratio(float64(st.selfAlloc), float64(st.rows))
		out.layers[name+".share"] = ratio(float64(st.selfNs), float64(wallNs))
	}
	out.layers["trace.residual_frac"] = ratio(float64(residualNs), float64(wallNs))
	tracedPerRow := ratio(float64(tracedCPU.Nanoseconds()), float64(completedRows))
	out.layers["trace.overhead_frac"] = ratio(tracedPerRow, out.e2e["cpu_ns_per_row"].Median) - 1

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	file := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Host     hostInfo `json:"host"`
		WallNs   int64    `json:"wall_ns"`
		Spans    []span   `json:"spans"`
	}{workload, cfg.seed, host(), wallNs, t.spans}
	js, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"), append(js, '\n'), 0o644)
}
