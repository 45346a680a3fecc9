package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsi/internal/tensor"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
		if !nameOK(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if !nameOK(d.Name) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
	}
	layers := perLayer()
	if len(layers) > 128 || len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (limit 128)", len(bj.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, d := range layers {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if !nameOK(d.Name) || seen[d.Name] {
			t.Errorf("per-layer metric %q is misnamed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloadsReducedScale runs every workload at reduced scale, window
// and traced re-play both: the oracle must pass, the run must emit exactly
// the metric names the contract lists, and the trace must account for its
// own wall time. Nothing here asserts a timing.
func TestWorkloadsReducedScale(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer() {
		known[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 0.1, trace: true, outDir: t.TempDir(), reduced: true}
			out, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.oracle.correct() {
				t.Fatalf("oracle: %d of %d failed: %v", out.oracle.failed, out.oracle.attempted, out.oracle.problems)
			}
			for _, d := range endToEnd {
				s, ok := out.e2e[d.Name]
				if !ok || s.N == 0 || !(s.Median > 0) || math.IsInf(s.Median, 0) {
					t.Errorf("%s = %+v, want a positive finite number", d.Name, s)
				}
			}
			if len(out.e2e) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, want %d", len(out.e2e), len(endToEnd))
			}
			sum := out.layers["trace.residual_frac"]
			for name, v := range out.layers {
				if !known[name] {
					t.Errorf("emitted per-layer metric %q that BENCHMARK.json does not list", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
				if strings.HasSuffix(name, ".share") {
					sum += v
				}
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("stage shares plus residual sum to %.4f, want 1 ± 0.01", sum)
			}
			for _, name := range []string{"scribe.shed", "scribe.dropped", "etl.poisoned", "etl.write_retries", "tectonic.read_retries", "dpp.splits_released"} {
				if out.layers[name] != 0 {
					t.Errorf("%s = %v on a fault-free run", name, out.layers[name])
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// TestOracleFlipsOnCorruptedDigest: one wrong value in what a consumer
// got must fail every row of that digest, and a missing row must fail
// exactly-once.
func TestOracleFlipsOnCorruptedDigest(t *testing.T) {
	samples := servedSamples(dataSpec(), 3, 64)
	want := storedDigest(samples)

	var clean oracle
	clean.checkDigest("replay", storedDigest(servedSamples(dataSpec(), 3, 64)), want)
	if !clean.correct() || clean.attempted != 64 {
		t.Fatalf("same-seed replay did not verify: %+v", clean)
	}

	corrupted := storedDigest(samples)
	for id := range corrupted.Dense {
		corrupted.Dense[id]++
		break
	}
	var o oracle
	o.checkDigest("corrupted", corrupted, want)
	if o.correct() || o.failed != 64 {
		t.Fatalf("corrupted digest: correct=%v failed=%d, want false and 64", o.correct(), o.failed)
	}

	short := storedDigest(samples[:63])
	var lost oracle
	lost.checkDigest("lost a row", short, want)
	if lost.correct() || lost.failed != 1 {
		t.Fatalf("lost row: correct=%v failed=%d, want false and 1", lost.correct(), lost.failed)
	}

	var counter oracle
	counter.checkDigest("ok", storedDigest(samples), want)
	counter.checkCount("scribe.Shed", 2, 0)
	if counter.correct() || counter.failed != 2 {
		t.Fatalf("shed rows: correct=%v failed=%d, want false and 2", counter.correct(), counter.failed)
	}

	spec := sessionSpec(ingestModel, true, 32)
	a, b := tensor.NewContentSum(), tensor.NewContentSum()
	if err := addDelivered(a, samples, spec); err != nil {
		t.Fatal(err)
	}
	if err := addDelivered(b, servedSamples(dataSpec(), 4, 64), spec); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("different seeds deliver the same digest: the oracle would not notice wrong data")
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {192, 0.9}, {199, 0.9},
		{200, 0.95}, {560, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, 100*got, 100*c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
}

// TestQuartilesMatchPythonStatistics pins the spread rule to the one the
// driver applies: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summary %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if s.Value != 5.5 || firstQuartile(s).Value != 2.75 {
		t.Fatalf("reported value %v (first quartile %v), want the median 5.5 (2.75)", s.Value, firstQuartile(s).Value)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps 2: only 30..50 is new
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past the parent: cut at 100
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 35},  // grandchild: comes off 3, not 1
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}

	tr := newTracer()
	id, _ := tr.in("scribe.log", "p", 4, func() error { time.Sleep(2 * time.Millisecond); return nil })
	tr.child(id, "logdevice.append", 4, time.Millisecond, 0)
	tr.child(id, "logdevice.append", 0, time.Hour, 0) // cut off at the parent's end
	byStage, wall, residual := tr.totals()
	if got := byStage["scribe.log"].selfNs + byStage["logdevice.append"].selfNs; got != wall || residual != 0 {
		t.Errorf("stages sum to %d ns of a %d ns trace with %d residual", got, wall, residual)
	}
	if byStage["scribe.log"].selfNs != 0 || byStage["logdevice.append"].rows != 4 {
		t.Errorf("totals %+v", byStage)
	}
}

// TestOpenLoopCountsLateness drives the schedule with a fake clock: a
// stall makes the following ticks late, they fire at once and are not
// skipped, and every tick is stamped with its due time, not its fire
// time.
func TestOpenLoopCountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	loop := &openLoop{
		start: start, period: 50 * time.Millisecond,
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	work := []time.Duration{120 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 0}
	for i, w := range work {
		due := loop.wait(i)
		if want := start.Add(time.Duration(i) * 50 * time.Millisecond); !due.Equal(want) {
			t.Errorf("tick %d stamped %v, want its due time %v", i, due.Sub(start), want.Sub(start))
		}
		now = now.Add(w)
	}
	// Tick 0 fires on time and stalls 120 ms: tick 1 (due 50) fires at 120,
	// tick 2 (due 100) at 130, tick 3 (due 150) waits from 140.
	want := []float64{0, 70, 30, 0}
	for i, w := range want {
		if loop.lateMs[i] != w {
			t.Errorf("tick %d late %v ms, want %v", i, loop.lateMs[i], w)
		}
	}
	if got := now.Sub(start); got != 150*time.Millisecond {
		t.Errorf("schedule ended at %v, want 150ms: no tick skipped, none early", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "cpu_ns_per_row", Unit: "ns", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	for _, c := range []struct {
		d        metricDef
		old, new summary
		want     string
	}{
		{lower, steady(100), steady(101), "same"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(85), "better"},
		{lower, steady(100), steady(92), "same"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(115), "better"},
		{lower, steady(100), summary{Median: 101, Q1: 90, Q3: 112, N: 10}, "unresolved"},
		{lower, summary{Median: 100, Q1: 100, Q3: 100, N: 1}, summary{Median: 95, Q1: 95, Q3: 95, N: 1}, "same"},
	} {
		if _, got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.old.Median, c.new.Median, got, c.want)
		}
	}
}

// TestCompareGate: the gate exits 0 on two equal sets and 1 when a metric
// worsens past its bound or the failed share rises.
func TestCompareGate(t *testing.T) {
	write := func(dir string, cpu float64, failed int64) {
		for seed := int64(1); seed <= 3; seed++ {
			out := newOutcome()
			out.oracle.attempted, out.oracle.failed = 1000, failed
			for _, d := range endToEnd {
				out.e2e[d.Name] = exact(50)
			}
			out.e2e["cpu_ns_per_row"] = exact(cpu + float64(seed))
			if err := writeResult(workloads[0], config{seed: seed, outDir: dir}, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, same, slow, broken := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 1000, 0)
	write(same, 1001, 0)
	write(slow, 1300, 0)
	write(broken, 1000, 5)
	var buf bytes.Buffer
	if got := runCompare(&buf, base, same); got != 0 || !strings.Contains(buf.String(), "same") {
		t.Errorf("equal sets: exit %d\n%s", got, buf.String())
	}
	buf.Reset()
	if got := runCompare(&buf, base, slow); got != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("slower set: exit %d\n%s", got, buf.String())
	}
	buf.Reset()
	if got := runCompare(&buf, base, broken); got != 1 || !strings.Contains(buf.String(), "failed share rose") {
		t.Errorf("failing set: exit %d\n%s", got, buf.String())
	}
}

// nameOK reports whether s is a legal metric or workload name under the
// contract: a letter or digit, then letters, digits, '_', '.', '-'; at
// most 64 characters.
func nameOK(s string) bool {
	if s == "" || len(s) > 64 || strings.ContainsAny(s[:1], "_.-") {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
		default:
			return false
		}
	}
	return true
}
