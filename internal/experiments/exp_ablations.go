package experiments

import (
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/hw"
)

func init() {
	register("ablations", "Design-choice ablations: coalesce window, stripe size, SSD tier (DESIGN §5)", runAblations)
}

// runAblations sweeps the design knobs DESIGN.md calls out, beyond the
// paper's published configurations.
func runAblations() (Result, error) {
	res := Result{ID: "ablations", Title: Title("ablations")}

	// --- Coalesce-window sweep: the over-read vs IOPS trade-off. ----
	build := defaultBuild()
	build.Scale = 0.012
	build.Partitions = 1
	build.RowsPerPart = 2048
	build.Writer = dwrf.WriterOptions{Flatten: true, RowsPerStripe: 512, PlainEncodings: true}
	build.Reorder = true
	d, err := BuildDataset(datagen.RM1, build)
	if err != nil {
		return res, err
	}
	proj := d.Gen.Projection(1)
	splits, err := d.Table.Splits(nil)
	if err != nil {
		return res, err
	}
	for _, window := range []int64{0, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		d.Cluster.ResetIOAccounting()
		var wanted, read int64
		var ios int
		for _, sp := range splits {
			b, stats, err := d.WH.ReadSplit(sp, proj, dwrf.ReadOptions{CoalesceBytes: window})
			if err != nil {
				return res, err
			}
			b.Release()
			wanted += stats.BytesWanted
			read += stats.BytesRead
			ios += stats.IOs
		}
		busy := d.Cluster.AggregateDiskBusy().Seconds()
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("coalesce %7s", fmtBytes(float64(window))),
			Paper:    "-",
			Measured: fmt.Sprintf("%4d IOs, over-read %s, %s/s useful", ios, fmtPct(float64(read-wanted)/float64(read)), fmtBytes(float64(wanted)/busy)),
		})
	}

	// --- Stripe-size sweep: average I/O size vs memory footprint. ----
	for _, stripe := range []int{128, 512, 2048} {
		b2 := build
		b2.Writer = dwrf.WriterOptions{Flatten: true, RowsPerStripe: stripe, PlainEncodings: true}
		d2, err := BuildDataset(datagen.RM1, b2)
		if err != nil {
			return res, err
		}
		sp2, err := d2.Table.Splits(nil)
		if err != nil {
			return res, err
		}
		d2.Cluster.ResetIOAccounting()
		proj2 := d2.Gen.Projection(1)
		var read int64
		var ios int
		for _, sp := range sp2 {
			b, stats, err := d2.WH.ReadSplit(sp, proj2, dwrf.ReadOptions{CoalesceBytes: 64 << 10})
			if err != nil {
				return res, err
			}
			b.Release()
			read += stats.BytesRead
			ios += stats.IOs
		}
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("stripe %5d rows", stripe),
			Paper:    "larger stripes -> larger IOs",
			Measured: fmt.Sprintf("avg I/O %s over %d IOs", fmtBytes(float64(read)/float64(ios)), ios),
		})
	}

	// --- SSD tier sized by the Figure 7 hot set (§7.2). --------------
	for _, p := range datagen.Profiles() {
		plan := tierPlan{
			DatasetBytes: int64(p.AllPartitionsPB * 1e15), Replication: 3,
			DemandGBps: 120 * p.TrainerGBps, AvgIOBytes: 1310720,
			HDD: hw.HDD, SSD: hw.SSD, DisksPerNode: 36,
			HDDNodeWatts: 500, SSDNodeWatts: 900,
			HotTrafficShare: 0.80, HotBytesShare: p.HotShareFor80PctTraffic,
		}
		pure := plan.pureHDD()
		tiered, err := plan.tiered()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Row{
			Label:    p.Name + " SSD tier power vs pure HDD",
			Paper:    "tiering improves IOPS/W (§7.2)",
			Measured: fmt.Sprintf("%.0f kW -> %.0f kW (%s)", pure.TotalWatts/1e3, tiered.TotalWatts/1e3, fmtPct(tiered.TotalWatts/pure.TotalWatts)),
		})
	}
	return res, nil
}
