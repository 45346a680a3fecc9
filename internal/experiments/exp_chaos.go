package experiments

import (
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/tectonic/faults"
)

func init() {
	register("chaos", "Self-healing read path under a seeded fault storm: availability, retries, hedges, quarantines", runChaos)
}

// runChaos reads the RM1 dataset twice — once fault-free, once under a
// seeded storm (every node flaky, one silently corrupting, one in a
// brownout, one hard down) — and reports the recovery work the read
// path performed to keep the rows flowing. The paper's evaluation runs
// with storage faults disabled; the paper column is therefore empty and
// the experiment's target is availability, not a reported figure.
func runChaos() (Result, error) {
	res := Result{ID: "chaos", Title: Title("chaos")}
	// Two private (non-memoized) builds of the same dataset: identical
	// bytes and replica placement, but separate clusters, so the storm's
	// disk-queue backlog, schedule, and quarantines neither leak into
	// other experiments nor contaminate the fault-free baseline.
	d, err := BuildDataset(datagen.RM1, defaultBuild())
	if err != nil {
		return res, err
	}
	d2, err := BuildDataset(datagen.RM1, defaultBuild())
	if err != nil {
		return res, err
	}
	proj := d.Gen.Projection(1)
	splits, err := d.Table.Splits(nil)
	if err != nil {
		return res, err
	}

	readAll := func(d *BuiltDataset) (rows, failed int, stats dwrf.ReadStats) {
		for _, sp := range splits {
			got, s, err := d.WH.ReadSplit(sp, proj, dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes})
			stats.Merge(s)
			if err != nil {
				// A split the storm defeats outright is what DPP's
				// degraded mode releases back to the master; here it
				// counts against availability.
				failed++
				continue
			}
			rows += got.Rows
			got.Release()
		}
		return rows, failed, stats
	}

	rowsFree, failedFree, _ := readAll(d)
	if failedFree > 0 {
		return res, fmt.Errorf("chaos: %d splits failed with no faults injected", failedFree)
	}

	sched := faults.NewSchedule(7)
	for n := 0; n < 6; n++ {
		sched.Flaky(n, 0, 0, 0.2)
	}
	sched.Corrupting(0, 0, 0) // silent bit rot: caught by content hashes, quarantined
	sched.Slow(1, 0, 0, 8)    // brownout: the hedged-read trigger
	sched.Down(2, 0, 0)       // hard down: failover target ordering skips it
	d2.Cluster.SetFaultSchedule(sched)

	rowsStorm, failedStorm, statsStorm := readAll(d2)
	fc := d2.Cluster.FaultCounters()

	avail := 1.0
	if len(splits) > 0 {
		avail = float64(len(splits)-failedStorm) / float64(len(splits))
	}
	res.Rows = append(res.Rows,
		Row{
			Label:    "split availability under storm",
			Paper:    "-",
			Measured: fmtPct(avail),
			Note:     fmt.Sprintf("%d/%d splits, %d/%d rows; paper eval runs faults-disabled", len(splits)-failedStorm, len(splits), rowsStorm, rowsFree),
		},
		Row{
			Label:    "storage retries",
			Paper:    "-",
			Measured: fmt.Sprint(fc.Retries),
			Note:     "failed attempts retried with capped backoff + jitter",
		},
		Row{
			Label:    "replica failovers",
			Paper:    "-",
			Measured: fmt.Sprint(fc.Failovers),
			Note:     "serves by a non-primary replica",
		},
		Row{
			Label:    "hedged reads (wins)",
			Paper:    "-",
			Measured: fmt.Sprintf("%d (%d)", fc.Hedges, fc.HedgeWins),
			Note:     "second read fired when latency crossed the adaptive threshold",
		},
		Row{
			Label:    "corrupt serves -> quarantines",
			Paper:    "-",
			Measured: fmt.Sprintf("%d -> %d", fc.CorruptServes, fc.Quarantines),
			Note:     "content-hash mismatches; condemned replicas leave the rotation",
		},
		Row{
			Label:    "reader-visible recovery",
			Paper:    "-",
			Measured: fmt.Sprintf("%d corrupt stripes, %d quarantines", statsStorm.CorruptStripes, statsStorm.Quarantines),
			Note:     "ReadStats as shipped in WorkerStats heartbeats; footer healing included",
		},
	)
	return res, nil
}
