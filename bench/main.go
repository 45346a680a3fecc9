// Command bench is the repository's one benchmark: four workloads over
// the whole DSI pipeline, seven end-to-end metrics from a tracing-off
// window, and a traced single-threaded re-play that attributes time and
// allocations to each layer. README.md in this directory says what each
// workload is for and which end-to-end metric each layer should move.
//
//	bash bench/run.sh                        every workload, window and traced re-play
//	bash bench/run.sh --workload train_cold --seed 17 --seconds 26 --trace 0
//	bash bench/run.sh -compare bench/out/a bench/out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// hostProcs is the reference host's core count, and the GOMAXPROCS of the
// workloads that have work for two cores. train_shared_warm has not: it is
// one worker handing batches to one client with little work in between,
// and on two Ps its CPU per row followed how the hand-offs fell across the
// cores (waking a parked thread costs more than the batch it hands over,
// and how much more depends on the shared host). It runs on one P, where a
// hand-off is a goroutine switch. Numbers taken at different GOMAXPROCS do
// not compare, so a workload's value is fixed, printed with every run and
// recorded in its result file.
const hostProcs = 2

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// trace runs the traced re-play after the window.
	trace  bool
	outDir string
	// reduced shrinks every workload to one short pass; only the tests
	// set it.
	reduced bool
}

type workload struct {
	name  string
	why   string
	procs int // GOMAXPROCS while the workload runs
	run   func(config) (*outcome, error)
}

var workloads = []workload{
	{"ingest_write", "write path only (scribe, logdevice, ETL join, DWRF encode, tectonic append): the ingest layers do all the work, the read layers none",
		hostProcs, runIngestWrite},
	{"train_cold", "read path, table 4x the cache so every lookup misses and evicts: fetch, decode and transform do most of the work, ingest none",
		hostProcs, func(c config) (*outcome, error) { return runTrain(c, false) }},
	{"train_shared_warm", "three tenants over a cache that holds the table: decode and transform are bypassed, so probe, materialize, wire and lease/ack do the work",
		1, func(c config) (*outcome, error) { return runTrain(c, true) }},
	{"live_loop", "open loop at 600 rows/s through the whole pipe with two tailing tenants: writes and reads contend, and the only workload with freshness",
		hostProcs, runLiveLoop},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hostInfo is recorded once per result file.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func host() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves in the out directory for -compare.
type resultFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var name, traceFlag string
	var compare bool
	flag.StringVar(&name, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&cfg.seed, "seed", 17, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "length of the timed, tracing-off window")
	flag.StringVar(&traceFlag, "trace", "", "0: print the end-to-end metrics; 1: run the traced re-play too and print the per-layer metrics (default: run it and print both)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	flag.BoolVar(&compare, "compare", false, "compare two out directories given as arguments: old new")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare OLD_DIR NEW_DIR")
			return 2
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		return 2
	}

	fmt.Printf("host: nproc=%d %s\n", runtime.NumCPU(), runtime.Version())

	selected := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
			return 2
		}
		selected = []workload{w}
	}
	printE2E, printLayers := true, true
	switch traceFlag {
	case "":
	case "0":
		printLayers = false
	case "1":
		printE2E = false
	default:
		fmt.Fprintf(os.Stderr, "-trace must be 0 or 1, not %q\n", traceFlag)
		return 2
	}
	cfg.trace = printLayers

	status := 0
	for _, w := range selected {
		if err := runOne(w, cfg, printE2E, printLayers); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// runOne runs one workload, prints its metrics and result line, and
// writes its result file. A failed operation is an error.
func runOne(w workload, cfg config, printE2E, printLayers bool) error {
	runtime.GOMAXPROCS(w.procs)
	fmt.Printf("== %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.procs)
	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   out.oracle.correct(),
		Attempted: out.oracle.attempted,
		Failed:    out.oracle.failed,
		Metrics:   map[string]metricValue{},
	}
	if printE2E {
		for _, d := range endToEnd {
			s := out.e2e[d.Name]
			line.Metrics[d.Name] = metricValue{s.Value, d.Unit}
			fmt.Printf("%-36s %16.4f %-7s median %.4f q1 %.4f q3 %.4f n %d\n", d.Name, s.Value, d.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if printLayers {
		for _, d := range perLayer() {
			v := out.layers[d.Name]
			line.Metrics[d.Name] = metricValue{v, d.Unit}
			fmt.Printf("%-36s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, p := range out.oracle.problems {
		fmt.Printf("FAILED %s\n", p)
	}
	if err := writeResult(w, cfg, out); err != nil {
		return err
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

func writeResult(w workload, cfg config, out *outcome) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	h := host()
	h.GOMAXPROCS = w.procs // of the window; a traced re-play has since set its own
	rf := resultFile{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Host: h,
		Correct: out.oracle.correct(), Attempted: out.oracle.attempted, Failed: out.oracle.failed,
		Problems: out.oracle.problems, EndToEnd: out.e2e,
	}
	if cfg.trace {
		rf.PerLayer = out.layers
	}
	js, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d.json", w.name, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(js, '\n'), 0o644)
}
