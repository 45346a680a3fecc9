package experiments

import (
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/transforms"
)

func init() {
	register("table7", "Data stalls with on-host preprocessing (Table 7)", runTable7)
	register("table8", "GPU trainer ingestion demand (Table 8)", runTable8)
	register("fig8", "Trainer host cost of data loading (Figure 8)", runFig8)
	register("table9", "DPP worker throughput and workers per trainer (Table 9)", runTable9)
	register("fig9", "Worker utilization breakdown at saturation (Figure 9)", runFig9)
	register("table11", "Transformation operations (Table 11)", runTable11)
	register("table12", "Co-designed optimization ablation (Table 12)", runTable12)
	register("membw", "Memory bandwidth becomes the bottleneck on C-v2 (§6.3)", runMemBW)
}

// defaultCosts is the production-tuned cost model (FM+LO on, as deployed).
func defaultCosts() CostParams {
	return CostParams{Flatmap: true, LocalOpt: true}
}

// profileRead is the production read configuration: the coalesce window
// scaled to this simulation's stream sizes (see table12Coalesce).
// Flatmap is set as deployed but selects nothing (dwrf.ReadOptions); FM
// is priced by CostParams.Flatmap.
func profileRead() dwrf.ReadOptions {
	return dwrf.ReadOptions{CoalesceBytes: table12Coalesce, Flatmap: true}
}

func runTable7() (Result, error) {
	res := Result{ID: "table7", Title: Title("table7")}
	cfg := HostPreprocessConfig{
		Node:                   v100Trainer,
		GHz:                    2.5,
		DemandGBps:             datagen.RM1.TrainerGBps,
		PreprocCyclesPerByte:   17.8,
		PreprocMemBytesPerByte: 19.0,
		RawAmplification:       2.0,
	}
	rep, err := cfg.Evaluate()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		Row{Label: "% GPU stall time", Paper: "56", Measured: fmtF(rep.GPUStallPct), Note: "RM1 on 2-socket V100 node"},
		Row{Label: "% CPU utilization", Paper: "92", Measured: fmtF(rep.CPUUtilPct)},
		Row{Label: "% memory BW utilization", Paper: "54", Measured: fmtF(rep.MemBWUtilPct)},
		Row{Label: "achievable supply (GB/s)", Paper: "-", Measured: fmtF(rep.SupplyGBps), Note: fmt.Sprintf("vs %.1f GB/s demand", cfg.DemandGBps)},
	)
	return res, nil
}

func runTable8() (Result, error) {
	res := Result{ID: "table8", Title: Title("table8")}
	for _, p := range datagen.Profiles() {
		res.Rows = append(res.Rows, Row{
			Label:    p.Name + " GB/s per 8-GPU node",
			Paper:    fmtF(p.TrainerGBps),
			Measured: fmtF(p.TrainerGBps),
			Note:     "demand model input; spans >6x across models",
		})
	}
	spread := datagen.RM1.TrainerGBps / datagen.RM2.TrainerGBps
	res.Rows = append(res.Rows, Row{Label: "max/min demand spread", Paper: ">3.5x", Measured: fmtX(spread)})
	return res, nil
}

func runFig8() (Result, error) {
	res := Result{ID: "fig8", Title: Title("fig8")}
	costs := DefaultLoadCosts()
	for rate := 2.0; rate <= 20; rate += 3 {
		cpu, mem, nic := LoadUtilization(v100Trainer, 2.5, rate, costs)
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("load %4.1f GB/s", rate),
			Paper:    "-",
			Measured: fmt.Sprintf("cpu %s mem %s nic %s", fmtPct(cpu), fmtPct(mem), fmtPct(nic)),
		})
	}
	for _, p := range datagen.Profiles() {
		cpu, mem, _ := LoadUtilization(v100Trainer, 2.5, p.TrainerGBps, costs)
		paper := "-"
		if p.Name == "RM1" {
			paper = "cpu 40% mem 55%"
		}
		res.Rows = append(res.Rows, Row{
			Label:    p.Name + " at demand",
			Paper:    paper,
			Measured: fmt.Sprintf("cpu %s mem %s", fmtPct(cpu), fmtPct(mem)),
			Note:     "loading only, no extract/transform",
		})
	}
	return res, nil
}

// workerRun memoizes the per-profile saturation run shared by table9,
// fig9, and membw.
var workerRuns = map[string]Priced{}

func workerRunFor(p datagen.Profile) (Priced, error) {
	if rep, ok := workerRuns[p.Name]; ok {
		return rep, nil
	}
	d, err := defaultDataset(p)
	if err != nil {
		return Priced{}, err
	}
	rep, err := runWorkerSession(d, d.BuildSession(1, profileRead()), defaultCosts())
	if err != nil {
		return Priced{}, err
	}
	workerRuns[p.Name] = rep
	return rep, nil
}

func runTable9() (Result, error) {
	res := Result{ID: "table9", Title: Title("table9")}
	type measured struct {
		name                   string
		kqps                   float64
		rx, xformRx, tx        float64
		workersPerTrainer      float64
		paperKQPS, paperWorker float64
	}
	var ms []measured
	for _, p := range datagen.Profiles() {
		rep, err := workerRunFor(p)
		if err != nil {
			return res, err
		}
		qps := rep.SaturatedThroughput(cv1, 2.5)
		secs := float64(rep.RowsIn) / qps // saturated wall seconds
		m := measured{
			name:        p.Name,
			kqps:        qps / 1000,
			rx:          float64(rep.NICRxBytes) / secs / 1e9,
			xformRx:     float64(rep.DecodedBytes) / secs / 1e9,
			tx:          float64(rep.NICTxBytes) / secs / 1e9,
			paperKQPS:   p.WorkerKQPS,
			paperWorker: p.WorkersPerTrainer,
		}
		// Workers per trainer = trainer demand / per-worker tensor TX.
		txPerWorker := float64(rep.NICTxBytes) / secs / 1e9
		if txPerWorker > 0 {
			m.workersPerTrainer = p.TrainerGBps / txPerWorker
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		res.Rows = append(res.Rows,
			Row{
				Label:    m.name + " worker kQPS",
				Paper:    fmtF(m.paperKQPS),
				Measured: fmtF(m.kqps),
				Note:     "simulation scale; compare ordering",
			},
			Row{
				Label:    m.name + " storage RX / xform RX / TX (GB/s)",
				Paper:    "-",
				Measured: fmt.Sprintf("%s / %s / %s", fmtF(m.rx), fmtF(m.xformRx), fmtF(m.tx)),
			},
			Row{
				Label:    m.name + " workers per trainer node",
				Paper:    fmtF(m.paperWorker),
				Measured: fmtF(m.workersPerTrainer),
			},
		)
	}
	// Shape checks the paper emphasizes.
	res.Rows = append(res.Rows,
		Row{
			Label:    "QPS ordering RM3>RM1>RM2",
			Paper:    "true",
			Measured: fmt.Sprint(ms[2].kqps > ms[0].kqps && ms[0].kqps > ms[1].kqps),
		},
		Row{
			Label:    "workers/trainer ordering RM3>RM1>RM2",
			Paper:    "true",
			Measured: fmt.Sprint(ms[2].workersPerTrainer > ms[0].workersPerTrainer && ms[0].workersPerTrainer > ms[1].workersPerTrainer),
		},
	)
	return res, nil
}

func runFig9() (Result, error) {
	res := Result{ID: "fig9", Title: Title("fig9")}
	for _, p := range datagen.Profiles() {
		rep, err := workerRunFor(p)
		if err != nil {
			return res, err
		}
		cpu, mem, nic := rep.Utilizations(cv1, 2.5)
		total := rep.TotalCPUCycles()
		res.Rows = append(res.Rows,
			Row{
				Label:    p.Name + " CPU cycle split xform/extract/misc",
				Paper:    "xform-dominated",
				Measured: fmt.Sprintf("%s/%s/%s", fmtPct(rep.TransformCycles/total), fmtPct(rep.ExtractCycles/total), fmtPct(rep.TaxCycles/total)),
			},
			Row{
				Label:    p.Name + " utilization cpu/membw/nic",
				Paper:    "-",
				Measured: fmt.Sprintf("%s/%s/%s", fmtPct(cpu), fmtPct(mem), fmtPct(nic)),
				Note:     "bottleneck: " + rep.Bottleneck(cv1, 2.5),
			},
		)
	}
	return res, nil
}

func runTable11() (Result, error) {
	res := Result{ID: "table11", Title: Title("table11")}
	ops := []transforms.Op{
		&transforms.Cartesian{}, &transforms.Bucketize{}, &transforms.ComputeScore{},
		&transforms.Enumerate{}, &transforms.PositiveModulus{}, &transforms.IdListTransform{},
		&transforms.BoxCox{}, &transforms.Logit{}, &transforms.MapId{}, &transforms.FirstX{},
		&transforms.GetLocalHour{}, &transforms.SigridHash{}, &transforms.NGram{},
		&transforms.Onehot{}, &transforms.Clamp{}, &transforms.Sampling{},
	}
	for _, op := range ops {
		c := op.Cost()
		res.Rows = append(res.Rows, Row{
			Label:    op.Name(),
			Paper:    "-",
			Measured: fmt.Sprintf("%s, %.0f cyc/val, GPU %.1fx", op.Class(), c.CyclesPerValue, c.AccelSpeedup),
		})
	}
	// Class split from a representative RM1 session.
	d, err := defaultDataset(datagen.RM1)
	if err != nil {
		return res, err
	}
	spec := d.BuildSession(1, profileRead())
	g, err := spec.BuildGraph()
	if err != nil {
		return res, err
	}
	splits, err := d.Table.Splits(nil)
	if err != nil {
		return res, err
	}
	batch, _, err := d.WH.ReadSplitBatchCached(splits[0], spec.Projection(), spec.Read)
	if err != nil {
		return res, err
	}
	stats, err := g.Run(batch)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Row{
		Label: "cycle split gen/sparse-norm/dense-norm",
		Paper: "75%/20%/5%",
		Measured: fmt.Sprintf("%s/%s/%s",
			fmtPct(stats.ClassShare(transforms.FeatureGen)),
			fmtPct(stats.ClassShare(transforms.SparseNorm)),
			fmtPct(stats.ClassShare(transforms.DenseNorm))),
	})
	return res, nil
}

// table12Coalesce is the coalesced-read window scaled to this
// simulation's stream sizes: the paper's 1.25 MiB window spans ~50 of its
// ~23 KB feature streams; at our ~16 KB streams the same span is ~128 KB.
const table12Coalesce = 128 << 10

// runTable12 is the headline ablation: Baseline → +FF → +FM → +LO →
// +CR → +FR → +LS, measuring DPP (CPU-bound) throughput and storage
// throughput (requested bytes per disk-busy second).
func runTable12() (Result, error) {
	res := Result{ID: "table12", Title: Title("table12")}

	type config struct {
		name   string
		build  buildOpts
		read   dwrf.ReadOptions
		costs  CostParams
		paperD float64
		paperS float64
	}
	sized := func(flatten, reorder bool, rowsPerStripe int) buildOpts {
		o := defaultBuild()
		o.Scale = 0.012
		o.Partitions = 1
		o.RowsPerPart = 4096
		o.Writer = dwrf.WriterOptions{Flatten: flatten, RowsPerStripe: rowsPerStripe, PlainEncodings: true}
		o.Reorder = reorder
		return o
	}
	base := sized(false, false, 1024)
	ff := sized(true, false, 1024)
	fr := sized(true, true, 1024)
	ls := sized(true, true, 4096)

	on := CostParams{Flatmap: true, LocalOpt: true}
	fmOnly := CostParams{Flatmap: true}
	cfgs := []config{
		{name: "Baseline", build: base, read: dwrf.ReadOptions{}, costs: CostParams{}, paperD: 1.00, paperS: 1.00},
		{name: "+FF", build: ff, read: dwrf.ReadOptions{}, costs: CostParams{}, paperD: 2.00, paperS: 0.03},
		{name: "+FM", build: ff, read: dwrf.ReadOptions{Flatmap: true}, costs: fmOnly, paperD: 2.30, paperS: 0.03},
		{name: "+LO", build: ff, read: dwrf.ReadOptions{Flatmap: true}, costs: on, paperD: 2.94, paperS: 0.03},
		{name: "+CR", build: ff, read: dwrf.ReadOptions{Flatmap: true, CoalesceBytes: table12Coalesce}, costs: on, paperD: 2.94, paperS: 0.99},
		{name: "+FR", build: fr, read: dwrf.ReadOptions{Flatmap: true, CoalesceBytes: table12Coalesce}, costs: on, paperD: 2.94, paperS: 1.84},
		{name: "+LS", build: ls, read: dwrf.ReadOptions{Flatmap: true, CoalesceBytes: table12Coalesce}, costs: on, paperD: 2.94, paperS: 2.41},
	}

	var baseDPP, baseStorage float64
	for i, cfg := range cfgs {
		d, err := BuildDataset(datagen.RM1, cfg.build)
		if err != nil {
			return res, err
		}
		rep, err := runWorkerSession(d, d.BuildSession(1, cfg.read), cfg.costs)
		if err != nil {
			return res, err
		}
		dppTput := rep.CPUBoundThroughput(cv1, 2.5)
		busy := d.Cluster.AggregateDiskBusy().Seconds()
		storageTput := float64(rep.StorageWantedBytes) / busy
		if i == 0 {
			baseDPP, baseStorage = dppTput, storageTput
		}
		res.Rows = append(res.Rows, Row{
			Label:    cfg.name,
			Paper:    fmt.Sprintf("DPP %.2f / storage %.2f", cfg.paperD, cfg.paperS),
			Measured: fmt.Sprintf("DPP %.2f / storage %.2f", dppTput/baseDPP, storageTput/baseStorage),
		})
	}
	return res, nil
}

// runMemBW reproduces §6.3: on C-v2 the worker's bottleneck moves to
// memory bandwidth, and transforms dominate memory traffic.
func runMemBW() (Result, error) {
	res := Result{ID: "membw", Title: Title("membw")}
	rep, err := workerRunFor(datagen.RM2)
	if err != nil {
		return res, err
	}
	total := rep.TotalMemBytes()
	res.Rows = append(res.Rows,
		Row{
			Label:    "RM2 bottleneck on C-v2",
			Paper:    "membw",
			Measured: rep.Bottleneck(cv2, 2.5),
			Note:     "NIC doubled (25G) while memBW/core shrank",
		},
		Row{
			Label: "mem traffic split xform/extract/netRX/netTX",
			Paper: "50.4/24.9/16.4/4.7 (LLC misses)",
			Measured: fmt.Sprintf("%s/%s/%s/%s",
				fmtPct(rep.MemTransform/total), fmtPct(rep.MemExtract/total),
				fmtPct(rep.MemNetRX/total), fmtPct(rep.MemNetTX/total)),
		},
	)
	for _, n := range generations() {
		res.Rows = append(res.Rows, Row{
			Label:    "memBW/core on " + n.Name,
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f GB/s/core, NIC %.2f Gbps/core", n.memBWPerCore(), n.nicPerCore()),
		})
	}
	return res, nil
}
