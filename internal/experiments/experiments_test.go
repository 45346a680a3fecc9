package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dsi/internal/datagen"
)

// setBuildRowScale scales the rows of subsequent dataset builds, clears
// the dataset cache (cached datasets were built at the old scale), and
// returns a restore function.
func setBuildRowScale(scale float64) (restore func()) {
	buildScaleMu.Lock()
	prev := buildRowScale
	buildRowScale = scale
	buildScaleMu.Unlock()
	clearDatasetCache()
	return func() {
		buildScaleMu.Lock()
		buildRowScale = prev
		buildScaleMu.Unlock()
		clearDatasetCache()
	}
}

// clearDatasetCache drops memoized datasets.
func clearDatasetCache() {
	datasetMu.Lock()
	datasetCache = map[string]*BuiltDataset{}
	datasetMu.Unlock()
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"ablations", "chaos", "encodings",
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"gaps", "ingest", "membw", "multitenant", "scaling",
		"table10", "table11", "table12", "table2", "table3", "table4",
		"table5", "table6", "table7", "table8", "table9", "writechaos",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from this run")

// wallClock names the experiments timed on the wall clock. Their
// measured column moves from run to run, so their golden files pin the
// row labels only.
var wallClock = map[string]bool{"encodings": true, "ingest": true, "multitenant": true, "scaling": true}

// golden renders what an experiment's golden file holds.
func golden(res Result) string {
	if !wallClock[res.ID] {
		return res.String()
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row.Label + "\n")
	}
	return b.String()
}

// TestExperimentGolden runs every experiment and compares what it prints
// with testdata/golden/<id>.txt byte for byte, so a change that moves a
// paper number fails until the moved file is committed beside it
// (`go test -run Golden -update ./internal/experiments` rewrites them).
// The fleet-scale simulations behind the registry take ~20s at full
// scale; -short runs the whole registry at reduced dataset scale and
// only checks that each experiment runs.
func TestExperimentGolden(t *testing.T) {
	if testing.Short() {
		restore := setBuildRowScale(0.08)
		defer restore()
	}
	for _, id := range IDs() {
		res, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || len(res.Rows) == 0 {
			t.Fatalf("%s: empty result %+v", id, res)
		}
		if !strings.Contains(res.String(), "paper") {
			t.Fatalf("%s: String() lacks header", id)
		}
		if testing.Short() {
			continue
		}
		path := filepath.Join("testdata", "golden", id+".txt")
		got := golden(res)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (-update writes it)", id, err)
		}
		if got != string(want) {
			t.Errorf("%s moved from %s:\n--- got\n%s--- want\n%s", id, path, got, want)
		}
	}
}

// parse helpers for shape assertions.
func pctOf(s string) float64 {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return -1
	}
	return v
}

func findRow(t *testing.T, res Result, label string) Row {
	t.Helper()
	for _, r := range res.Rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("row %q not found in %s", label, res.ID)
	return Row{}
}

func TestTable5BytesUsedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("table5")
	if err != nil {
		t.Fatal(err)
	}
	// Jobs read ~10% of features but 20-45% of bytes, and %bytes ordering
	// RM1 > RM2 > RM3 should hold.
	b1 := pctOf(findRow(t, res, "RM1 % bytes used").Measured)
	b2 := pctOf(findRow(t, res, "RM2 % bytes used").Measured)
	b3 := pctOf(findRow(t, res, "RM3 % bytes used").Measured)
	f1 := pctOf(findRow(t, res, "RM1 % features used").Measured)
	if b1 <= f1 {
		t.Fatalf("bytes used %.0f%% should exceed features used %.0f%% (popular features are bigger)", b1, f1)
	}
	if !(b1 > b3 && b2 > b3) {
		t.Fatalf("bytes-used ordering violated: %.0f/%.0f/%.0f", b1, b2, b3)
	}
	if b1 < 15 || b1 > 60 {
		t.Fatalf("RM1 bytes used %.0f%%, want ≈37%%", b1)
	}
}

func TestFig7HotShareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	rm1 := pctOf(findRow(t, res, "RM1 bytes for 80% of traffic").Measured)
	rm3 := pctOf(findRow(t, res, "RM3 bytes for 80% of traffic").Measured)
	// RM3's jobs read nearly identical features, so a much smaller hot
	// set absorbs 80% of traffic (paper: 18% vs 39%).
	if rm3 >= rm1 {
		t.Fatalf("RM3 hot share %.0f%% should be below RM1's %.0f%%", rm3, rm1)
	}
	if rm1 < 20 || rm1 > 60 {
		t.Fatalf("RM1 hot share %.0f%%, want ≈39%%", rm1)
	}
	if rm3 > 35 {
		t.Fatalf("RM3 hot share %.0f%%, want ≈18%%", rm3)
	}
}

func TestTable6Skew(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("table6")
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, res, "skew: mean >> median")
	ratio, err := strconv.ParseFloat(strings.TrimSuffix(row.Measured, "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.5 {
		t.Fatalf("I/O size skew %.1fx, want heavy tail like the paper's 18.7x", ratio)
	}
}

func TestTable12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("table12")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(label string) (dppT, storT float64) {
		m := findRow(t, res, label).Measured
		if _, err := fmtSscan(m, &dppT, &storT); err != nil {
			t.Fatalf("parse %q: %v", m, err)
		}
		return dppT, storT
	}
	baseD, baseS := parse("Baseline")
	ffD, ffS := parse("+FF")
	loD, _ := parse("+LO")
	_, crS := parse("+CR")
	_, frS := parse("+FR")
	_, lsS := parse("+LS")

	if baseD != 1 || baseS != 1 {
		t.Fatalf("baseline not normalized: %v %v", baseD, baseS)
	}
	// FF boosts DPP throughput but craters storage throughput.
	if ffD < 1.3 {
		t.Fatalf("+FF DPP gain %.2f, want ≈2x", ffD)
	}
	if ffS > 0.5 {
		t.Fatalf("+FF storage %.2f, want collapse (paper 0.03)", ffS)
	}
	// LO stacks on FM.
	if loD <= ffD {
		t.Fatalf("+LO %.2f not above +FF %.2f", loD, ffD)
	}
	// CR recovers storage throughput; FR and LS improve it further.
	if crS < ffS*3 {
		t.Fatalf("+CR storage %.2f did not recover from %.2f", crS, ffS)
	}
	if !(frS > crS && lsS > frS) {
		t.Fatalf("storage ordering violated: CR %.2f FR %.2f LS %.2f", crS, frS, lsS)
	}
}

// fmtSscan parses "DPP %f / storage %f".
func fmtSscan(s string, d, st *float64) (int, error) {
	s = strings.ReplaceAll(s, "DPP ", "")
	s = strings.ReplaceAll(s, "storage ", "")
	parts := strings.Split(s, " / ")
	if len(parts) != 2 {
		return 0, strconv.ErrSyntax
	}
	var err error
	if *d, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, err
	}
	if *st, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 1, err
	}
	return 2, nil
}

func TestTable9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("table9")
	if err != nil {
		t.Fatal(err)
	}
	if findRow(t, res, "QPS ordering RM3>RM1>RM2").Measured != "true" {
		t.Fatal("worker QPS ordering does not match Table 9")
	}
	if findRow(t, res, "workers/trainer ordering RM3>RM1>RM2").Measured != "true" {
		t.Fatal("workers-per-trainer ordering does not match Table 9")
	}
}

// TestScalingClosedLoopShape asserts the §3.2.1 headline the scaling
// experiment reproduces: under an identical trainer-speed shift, the
// auto-scaled pool grows past the fixed pool's size and stalls less.
func TestScalingClosedLoopShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real-time elastic sessions")
	}
	res, err := Run("scaling")
	if err != nil {
		t.Fatal(err)
	}
	if got := findRow(t, res, "closed loop reduces stalls").Measured; got != "true" {
		t.Fatalf("auto-scaled pool did not reduce stalls:\n%s", res)
	}
	usOf := func(label string) float64 {
		m := strings.TrimSuffix(findRow(t, res, label).Measured, "µs")
		v, err := strconv.ParseFloat(m, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", m, err)
		}
		return v
	}
	fixed := usOf("post-shift stall per batch, fixed minimal pool")
	auto := usOf("post-shift stall per batch, auto-scaled pool")
	if !(auto < fixed) {
		t.Fatalf("stall per batch: auto %.0fµs vs fixed %.0fµs, want auto lower", auto, fixed)
	}
	autoNote := findRow(t, res, "post-shift stall per batch, auto-scaled pool").Note
	var peak int
	if _, err := fmt.Sscanf(autoNote, "pool grew to %d workers", &peak); err != nil {
		t.Fatalf("parse %q: %v", autoNote, err)
	}
	if peak < 2 {
		t.Fatalf("auto-scaled pool peaked at %d workers, want >1", peak)
	}
}

func TestMemBWBottleneckOnCV2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("membw")
	if err != nil {
		t.Fatal(err)
	}
	if got := findRow(t, res, "RM2 bottleneck on C-v2").Measured; got != "membw" {
		t.Fatalf("C-v2 bottleneck = %s, want membw (§6.3)", got)
	}
}

func TestAblationsCoalesceSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("ablations")
	if err != nil {
		t.Fatal(err)
	}
	// I/O count must fall monotonically as the coalesce window widens.
	var prev int
	first := true
	for _, row := range res.Rows {
		if !strings.HasPrefix(row.Label, "coalesce") {
			continue
		}
		var ios int
		if _, err := fmt.Sscanf(strings.TrimSpace(row.Measured), "%d IOs", &ios); err != nil {
			t.Fatalf("parse %q: %v", row.Measured, err)
		}
		if !first && ios > prev {
			t.Fatalf("I/O count rose with a wider window: %d -> %d", prev, ios)
		}
		prev, first = ios, false
	}
	if first {
		t.Fatal("no coalesce rows found")
	}
	// The SSD tier must pay off for the IOPS-bound models (RM1, RM3).
	for _, model := range []string{"RM1", "RM3"} {
		row := findRow(t, res, model+" SSD tier power vs pure HDD")
		if !strings.Contains(row.Measured, "(") {
			t.Fatalf("unexpected format %q", row.Measured)
		}
		pct := pctOf(row.Measured[strings.Index(row.Measured, "(")+1 : strings.Index(row.Measured, ")")])
		if pct >= 100 {
			t.Fatalf("%s tiered fleet uses %.0f%% of pure-HDD power, want <100%%", model, pct)
		}
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	if testing.Short() {
		restore := setBuildRowScale(0.08)
		defer restore()
	}
	a, err := BuildDataset(datagen.RM3, defaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDataset(datagen.RM3, defaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.TotalBytes() != b.Table.TotalBytes() {
		t.Fatalf("dataset not deterministic: %d vs %d", a.Table.TotalBytes(), b.Table.TotalBytes())
	}
}

func TestEncodingsShrinkEncodableShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	res, err := Run("encodings")
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{
		"zipf low-cardinality data bytes v2/v1",
		"ascending IDs data bytes v2/v1",
	} {
		row := findRow(t, res, label)
		var ratio float64
		if _, err := fmt.Sscanf(row.Measured, "%f", &ratio); err != nil {
			t.Fatalf("parse %q: %v", row.Measured, err)
		}
		if ratio >= 1 {
			t.Fatalf("%s = %v, want < 1", label, ratio)
		}
	}
	// Full-range IDs defeat every encoding; selection must fall back to
	// plain and cost nothing.
	row := findRow(t, res, "zipf full-range data bytes v2/v1")
	var ratio float64
	if _, err := fmt.Sscanf(row.Measured, "%f", &ratio); err != nil {
		t.Fatalf("parse %q: %v", row.Measured, err)
	}
	if ratio > 1.0001 {
		t.Fatalf("full-range ratio = %v, want <= 1", ratio)
	}
}
