package dsi_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// TestLayerBudgets pins what each layer of the pipe costs per row — the
// allocations and bytes it allocates, and the bytes it stores, reads,
// over-reads and sends — on the benchmark's data shape: RM1 at 1 % of
// its features, a session projecting the 12 most popular dense and 6
// most popular sparse features through transforms.StandardGraph. Each
// layer runs as the system runs it, on a warmed, fixed input, with the
// collector off and one P, so every count is a property of the code and
// not of the host. testdata/budget.txt holds the expected numbers;
// allocations may move by ±0.5 per row and bytes by ±5 %. After a
// deliberate change, rewrite the file with
//
//	go test -run TestLayerBudgets -update .
//
// and say in the commit why each moved line moved.

var updateBudget = flag.Bool("update", false, "rewrite testdata/budget.txt from this run")

const (
	budgetFile = "testdata/budget.txt"

	budgetSeed       = 17
	budgetRows       = 512 // one partition
	budgetStripeRows = 256 // so two splits
	budgetBatchSize  = 128
	budgetDerived    = 6
	budgetDerivedID  = schema.FeatureID(1 << 20)
	budgetModel      = "rm1"

	// Runs warm pools, arenas and reader caches before budgetRuns are
	// counted. The read layers take many: the arena hands any pooled
	// column to any feature, so the columns take tens of passes to grow
	// to the longest feature they will be handed.
	ingestWarm = 2
	readWarm   = 48
	budgetRuns = 5

	allocSlack = 0.5  // allocations per row
	byteSlack  = 0.05 // relative
	// byteFloor keeps a line near zero from failing on a few stray
	// bytes: ±5 % of almost nothing is nothing.
	byteFloor = 0.1
)

// budget is the measured cost sheet: "layer metric" → value per row.
type budget map[string]float64

func (b budget) set(layer, metric string, v float64) { b[layer+" "+metric] = v }

// counted runs setup and then body warm+budgetRuns times and returns
// the median allocations and bytes allocated per row of the counted
// bodies — the counters testing.AllocsPerRun reads, with a setup step
// it has no room for. The collector is off, so nothing but body
// allocates between the two reads. The median, not the mean: a pooled
// column that a shuffled release hands to a longer feature still
// regrows now and then after the columns have settled, and one such run
// says nothing about what the layer costs.
func counted(rows, warm int, setup, body func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	var mallocs, total []float64
	for i := 0; i < warm+budgetRuns; i++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&before)
		body()
		runtime.ReadMemStats(&after)
		if i >= warm {
			mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/float64(rows))
			total = append(total, float64(after.TotalAlloc-before.TotalAlloc)/float64(rows))
		}
	}
	return median(mallocs), median(total)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// budgetSession is the benchmark's session shape: the projection, the
// compiled plan and the tensor outputs it delivers, named by
// Graph.TensorOutputs as every session spec in the program names them.
func budgetSession(t *testing.T, spec datagen.DatasetSpec) (*schema.Projection, *transforms.Plan, []schema.FeatureID, []schema.FeatureID) {
	t.Helper()
	gen := datagen.NewGenerator(spec, 0)
	byRank := func(first, n, keep int) []schema.FeatureID {
		ids := make([]schema.FeatureID, n)
		for i := range ids {
			ids[i] = schema.FeatureID(first + i)
		}
		sort.Slice(ids, func(i, j int) bool {
			ri, rj := gen.PopularityRank(ids[i]), gen.PopularityRank(ids[j])
			return ri < rj || ri == rj && ids[i] < ids[j]
		})
		ids = ids[:keep]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	dense := byRank(1, spec.DenseFeats, 12)
	sparse := byRank(spec.DenseFeats+1, spec.SparseFeats, 6)
	graph := transforms.StandardGraph(dense, sparse, budgetDerived, budgetDerivedID)
	plan, err := graph.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	denseOut, sparseOut, err := graph.TensorOutputs()
	if err != nil {
		t.Fatal(err)
	}
	return schema.NewProjection(append(dense, sparse...)...), plan, denseOut, sparseOut
}

// collectSink keeps what the joiner emits.
type collectSink struct{ samples []*schema.Sample }

func (s *collectSink) EmitTimed(sample *schema.Sample, _ int64) error {
	s.samples = append(s.samples, sample)
	return nil
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func TestLayerBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P: no pooled buffer waits in another P's private slot, and the
	// stripe writer encodes on the calling goroutine. The collector stays
	// off while counting; each layer starts from a collected heap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := budget{}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	spec := datagen.RM1.Scale(0.01, 1, 0)
	proj, plan, denseOut, sparseOut := budgetSession(t, spec)

	// The serving tier's logs: one partition of rows, encoded once.
	gen := datagen.NewGenerator(spec, budgetSeed)
	feats, events := make([][]byte, budgetRows), make([][]byte, budgetRows)
	for i := range feats {
		s := gen.Sample()
		var err error
		feats[i], err = datagen.EncodeFeatureLog(&datagen.FeatureLog{RequestID: int64(i + 1), Dense: s.DenseFeatures, Sparse: s.SparseFeatures, EventTime: int64(i + 1)})
		check(err)
		events[i], err = datagen.EncodeEventLog(&datagen.EventLog{RequestID: int64(i + 1), Engaged: s.Label > 0})
		check(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}

	// serving log → Scribe → LogDevice, then the joiner.
	bus := scribe.NewBus(logdevice.NewStore())
	daemon := scribe.NewDaemon("web-1", bus)
	sink := &collectSink{samples: make([]*schema.Sample, 0, budgetRows)}
	joiner := etl.NewJoiner(budgetModel, bus, sink)
	featCat, eventCat := datagen.FeatureCategory(budgetModel), datagen.EventCategory(budgetModel)
	logAll := func() {
		for i := range feats {
			check(daemon.Log(featCat, feats[i]))
			check(daemon.Log(eventCat, events[i]))
		}
		check(daemon.Flush())
	}
	join := func() {
		for len(sink.samples) < budgetRows && fail == nil {
			n, err := joiner.Step(1024)
			check(err)
			if n == 0 {
				check(fmt.Errorf("joiner drained with %d of %d rows joined", len(sink.samples), budgetRows))
			}
		}
	}
	// reset joins and trims what an earlier run logged.
	logged := false
	reset := func() {
		if logged {
			join()
		}
		check(joiner.TrimConsumed())
		sink.samples = sink.samples[:0]
		logged = false
	}
	runtime.GC()
	a, b := counted(budgetRows, ingestWarm, reset, func() {
		logAll()
		logged = true
	})
	got.set("scribe.log", "allocs", a)
	got.set("scribe.log", "alloc_bytes", b)
	runtime.GC()
	a, b = counted(budgetRows, ingestWarm, func() {
		reset()
		logAll()
	}, join)
	got.set("etl.join", "allocs", a)
	got.set("etl.join", "alloc_bytes", b)
	if fail != nil {
		t.Fatal(fail)
	}
	samples := sink.samples

	// Stripe encode and the Tectonic append, one sealed partition a run.
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	table, err := wh.CreateTable(budgetModel, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: budgetStripeRows})
	if err != nil {
		t.Fatal(err)
	}
	var key string
	part := 0
	runtime.GC()
	a, b = counted(budgetRows, ingestWarm, func() {
		key = fmt.Sprintf("part-%02d", part)
		part++
	}, func() {
		pw, err := table.NewPartition(key)
		check(err)
		for i, s := range samples {
			check(pw.WriteRow(s))
			pw.NoteEventTime(int64(i + 1))
		}
		check(pw.Close())
	})
	got.set("dwrf.encode", "allocs", a)
	got.set("dwrf.encode", "alloc_bytes", b)
	if fail != nil {
		t.Fatal(fail)
	}
	p, err := table.Partition(key)
	if err != nil {
		t.Fatal(err)
	}
	got.set("dwrf.encode", "stored_bytes", float64(p.Bytes)/budgetRows)

	// Read and decode one split through the cache's arena, as a missed
	// split is.
	splits, err := table.PartitionSplits(key)
	if err != nil {
		t.Fatal(err)
	}
	split := splits[0]
	rows := split.Rows
	cache := ware.NewCache(64 << 20)
	arena := cache.Arena()
	opts := dwrf.ReadOptions{CoalesceBytes: 128 << 10, Flatmap: true}
	read := func() (*dwrf.Batch, dwrf.ReadStats) {
		batch, stats, err := wh.ReadSplitBatchCachedArena(split, proj, opts, arena)
		if err != nil {
			t.Fatal(err)
		}
		return batch, stats
	}
	var stats dwrf.ReadStats
	var memBytes int64
	runtime.GC()
	a, b = counted(rows, readWarm, nil, func() {
		var batch *dwrf.Batch
		batch, stats = read()
		memBytes = batch.MemBytes()
		batch.Release()
	})
	got.set("dwrf.decode", "allocs", a)
	got.set("dwrf.decode", "alloc_bytes", b)
	got.set("dwrf.decode", "read_bytes", float64(stats.BytesRead)/float64(rows))
	got.set("dwrf.decode", "overread_bytes", float64(stats.BytesOverRead)/float64(rows))
	got.set("dwrf.decode", "mem_bytes", float64(memBytes)/float64(rows))

	// The transform plan, on a freshly decoded split each run.
	var work *dwrf.Batch
	runtime.GC()
	a, b = counted(rows, readWarm, func() {
		if work != nil {
			work.Release()
		}
		work, _ = read()
	}, func() {
		_, err := plan.Run(work, arena)
		check(err)
	})
	got.set("transforms.run", "allocs", a)
	got.set("transforms.run", "alloc_bytes", b)
	if fail != nil {
		t.Fatal(fail)
	}

	// The cache probe that answers a transformed hit: the reader's
	// content hash, both ware IDs, the lookup.
	r, err := wh.CachedReader(split.Path)
	if err != nil {
		t.Fatal(err)
	}
	xid := ware.XformID(ware.StripeID(r.StripeContentHash(split.Stripe), split.Path, split.Stripe, proj), plan.Fingerprint())
	if _, ok := cache.Insert(xid, work, "budget"); !ok {
		t.Fatal("the cache refused the transformed split")
	}
	runtime.GC()
	a, b = counted(rows, readWarm, nil, func() {
		r, err := wh.CachedReader(split.Path)
		check(err)
		sid := ware.StripeID(r.StripeContentHash(split.Stripe), split.Path, split.Stripe, proj)
		hit := cache.Get(ware.XformID(sid, plan.Fingerprint()), "budget")
		if hit == nil {
			check(fmt.Errorf("the probe missed"))
			return
		}
		hit.Release()
	})
	got.set("ware.probe", "allocs", a)
	got.set("ware.probe", "alloc_bytes", b)
	if fail != nil {
		t.Fatal(fail)
	}

	// The frame writer cuts the transformed split into batch frames,
	// into buffers kept across runs as the worker's frame pool keeps
	// them; the trainer decodes each frame into pooled tensors.
	var fw tensor.FrameWriter
	frames := make([][]byte, (rows+budgetBatchSize-1)/budgetBatchSize)
	runtime.GC()
	a, b = counted(rows, readWarm, nil, func() {
		check(fw.Reset(work, denseOut, sparseOut, budgetBatchSize))
		for i := range frames {
			lo, hi := fw.Range(i)
			frames[i], _ = fw.AppendRange(frames[i][:0], lo, hi)
		}
	})
	got.set("tensor.frame_write", "allocs", a)
	got.set("tensor.frame_write", "alloc_bytes", b)
	sent := 0
	for _, f := range frames {
		sent += len(f)
	}
	got.set("tensor.frame_write", "sent_bytes", float64(sent)/float64(rows))
	runtime.GC()
	a, b = counted(rows, readWarm, nil, func() {
		for _, f := range frames {
			batch, _, err := tensor.DecodeBinary(f)
			check(err)
			if batch != nil {
				batch.Release()
			}
		}
	})
	got.set("tensor.frame_decode", "allocs", a)
	got.set("tensor.frame_decode", "alloc_bytes", b)
	work.Release()
	if fail != nil {
		t.Fatal(fail)
	}

	if *updateBudget {
		if err := writeBudget(budgetFile, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readBudget(budgetFile)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	for _, k := range sortedKeys(got) {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s = %.3f per row is not in %s", k, got[k], budgetFile)
			continue
		}
		slack := allocSlack
		if !strings.HasSuffix(k, " allocs") {
			slack = math.Max(byteSlack*w, byteFloor)
		}
		if math.Abs(got[k]-w) > slack {
			t.Errorf("%s = %.3f per row, budget %.3f ± %.3f", k, got[k], w, slack)
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s is in %s but no layer measures it", k, budgetFile)
		}
	}
}

func sortedKeys(b budget) []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeBudget(path string, b budget) error {
	var sb strings.Builder
	sb.WriteString("# Per-row cost of each layer, pinned by TestLayerBudgets (budget_test.go).\n")
	sb.WriteString("# layer metric value: allocs ±0.5, byte metrics ±5 %. Rewrite with -update.\n")
	for _, k := range sortedKeys(b) {
		fmt.Fprintf(&sb, "%s %.3f\n", k, b[k])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func readBudget(path string) (budget, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := budget{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, line, err)
		}
		b[fields[0]+" "+fields[1]] = v
	}
	return b, sc.Err()
}
