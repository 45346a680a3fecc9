// Storagetuning: walks through the paper's §7.5 co-designed storage
// optimizations on one dataset, printing how each layout change moves
// the two throughput metrics of Table 12 — exactly the kind of
// what-if analysis a storage engineer would run before a format rollout.
package main

import (
	"fmt"
	"log"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/tectonic"
	"dsi/internal/warehouse"
)

// layout is one storage configuration under test.
type layout struct {
	name     string
	flatten  bool
	reorder  bool
	stripe   int
	coalesce int64
}

func main() {
	profile := datagen.RM1
	spec := profile.Scale(0.012, 1, 2048)
	layouts := []layout{
		{name: "regular maps (baseline)", flatten: false, stripe: 512},
		{name: "feature flattening", flatten: true, stripe: 512},
		{name: "  + coalesced reads", flatten: true, stripe: 512, coalesce: 128 << 10},
		{name: "  + feature reordering", flatten: true, reorder: true, stripe: 512, coalesce: 128 << 10},
		{name: "  + large stripes", flatten: true, reorder: true, stripe: 2048, coalesce: 128 << 10},
	}

	fmt.Printf("%-28s %10s %8s %12s %12s %14s\n",
		"layout", "I/Os", "avg I/O", "bytes read", "over-read", "storage MB/s")
	for _, l := range layouts {
		if err := evaluate(profile, spec, l); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nstorage MB/s = requested bytes per second of simulated disk-busy time")
}

func evaluate(profile datagen.Profile, spec datagen.DatasetSpec, l layout) error {
	gen := datagen.NewGenerator(spec, 1)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 5, Replication: 3})
	if err != nil {
		return err
	}
	wh := warehouse.New(cluster)
	wopts := dwrf.WriterOptions{Flatten: l.flatten, RowsPerStripe: l.stripe}
	if l.reorder {
		wopts.StreamOrder = gen.TrafficOrder(8)
	}
	tbl, err := wh.CreateTable(profile.Name, spec.BuildSchema(), wopts)
	if err != nil {
		return err
	}
	pw, err := tbl.NewPartition("p0")
	if err != nil {
		return err
	}
	for i := 0; i < spec.RowsPerPart; i++ {
		if err := pw.WriteRow(gen.Sample()); err != nil {
			return err
		}
	}
	if err := pw.Close(); err != nil {
		return err
	}

	// Read one training job's projection through the layout.
	proj := gen.Projection(1)
	splits, err := tbl.Splits(nil)
	if err != nil {
		return err
	}
	cluster.ResetIOAccounting()
	var wanted, read, over int64
	var ios int
	for _, sp := range splits {
		b, stats, err := wh.ReadSplit(sp, proj, dwrf.ReadOptions{CoalesceBytes: l.coalesce})
		if err != nil {
			return err
		}
		b.Release()
		wanted += stats.BytesWanted
		read += stats.BytesRead
		over += stats.BytesOverRead
		ios += stats.IOs
	}
	busy := cluster.AggregateDiskBusy().Seconds()
	fmt.Printf("%-28s %10d %8s %12d %12d %14.2f\n",
		l.name, ios, fmtBytes(float64(read)/float64(ios)), read, over,
		float64(wanted)/busy/1e6)
	return nil
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
