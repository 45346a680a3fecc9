// Command dsigen drives the offline data-generation path end to end:
// serving-time feature/event logging through Scribe into LogDevice,
// streaming ETL join/label, and materialization into a partitioned
// warehouse table — then prints the dataset's storage statistics.
//
// Usage:
//
//	dsigen -model RM1 -requests 2000 -partitions 2
package main

import (
	"flag"
	"fmt"
	"log"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/warehouse"
)

func main() {
	model := flag.String("model", "RM1", "workload profile: RM1, RM2, or RM3")
	requests := flag.Int("requests", 2000, "serving requests to simulate per partition")
	partitions := flag.Int("partitions", 2, "daily partitions to generate")
	scale := flag.Float64("scale", 0.01, "feature-count scale")
	seed := flag.Int64("seed", 1, "generator seed")
	validate := flag.Bool("validate", true, "re-read every partition split by split after writing (a second full read pass; disable for fast bulk generation)")
	flag.Parse()

	p, err := datagen.ProfileByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	spec := p.Scale(*scale, *partitions, *requests)
	gen := datagen.NewGenerator(spec, *seed)

	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("serving-host-0", bus)
	sim := datagen.NewServingSimulator(p.Name, gen, daemon)
	sim.EventDropRate = 0.3

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 3})
	if err != nil {
		log.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateUnboundedTable(p.Name, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 256})
	if err != nil {
		log.Fatal(err)
	}
	cursors, err := etl.NewCursorStore(store, "etl/"+p.Name+"/cursors")
	if err != nil {
		log.Fatal(err)
	}

	// Serve every request, then close both categories: the streaming ETL
	// joins the backlog into partitions of about -requests rows each and
	// ends at the close.
	if err := sim.ServeRequests(*requests * *partitions); err != nil {
		log.Fatal(err)
	}
	if err := sim.Close(bus); err != nil {
		log.Fatal(err)
	}
	joiner := etl.NewJoiner(p.Name, bus, nil)
	pipeline := &etl.Pipeline{Joiner: joiner, Table: tbl, Cursors: cursors, PartitionRows: *requests}
	if err := pipeline.Run(nil); err != nil {
		log.Fatal(err)
	}
	for _, part := range tbl.Partitions() {
		fmt.Printf("partition %s: %d rows, %d compressed bytes\n", part.Key, part.Rows, part.Bytes)
	}
	fmt.Printf("join: %d with events, %d expired, %d orphan events\n",
		joiner.Joined.Value(), joiner.Expired.Value(), joiner.OrphanEvents.Value())

	fmt.Printf("\ntable %s: %d partitions, %d logical bytes, %d replicated bytes on %d storage nodes\n",
		p.Name, len(tbl.Partitions()), tbl.TotalBytes(), cluster.TotalStoredBytes(), len(cluster.Nodes()))
	fb, err := tbl.FeatureBytes(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distinct feature streams: %d (features are stored as separate logical columns)\n", len(fb))

	if !*validate {
		return
	}
	// Validate what was written: read every partition back split by split,
	// the way a DPP worker does, and confirm the row counts survive a
	// round trip.
	fmt.Println("\nvalidation scan:")
	opts := dwrf.ReadOptions{Flatmap: true, CoalesceBytes: dwrf.DefaultCoalesceBytes}
	arena := dwrf.NewArena()
	for _, part := range tbl.Partitions() {
		splits, err := tbl.PartitionSplits(part.Key)
		if err != nil {
			log.Fatal(err)
		}
		rows := 0
		var rs dwrf.ReadStats
		for _, sp := range splits {
			b, stats, err := wh.ReadSplitBatchCachedArena(sp, nil, opts, arena)
			if err != nil {
				log.Fatal(err)
			}
			rows += b.Rows
			b.Release()
			rs.Merge(stats)
		}
		if rows != part.Rows {
			log.Fatalf("dsigen: partition %s scan returned %d rows, wrote %d", part.Key, rows, part.Rows)
		}
		fmt.Printf("  %s: %d rows ok, %d IOs, %d B read, fetch %.2fms decode %.2fms\n",
			part.Key, rows, rs.IOs, rs.BytesRead,
			rs.FetchWall.Seconds()*1e3, rs.DecodeWall.Seconds()*1e3)
	}
}
