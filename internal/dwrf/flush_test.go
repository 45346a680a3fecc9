package dwrf

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// This file pins the parallel stripe flush: what lands in the file is a
// function of the rows alone, never of how many workers encoded them,
// and a writer past its first stripe encodes out of reused state.

// flushSchema covers the feature shapes of encRows.
func flushSchema(t *testing.T) *schema.TableSchema {
	t.Helper()
	ts := schema.NewTableSchema("flush")
	for _, c := range []schema.Column{
		{ID: 1, Kind: schema.Dense, Name: "d"},
		{ID: 2, Kind: schema.Sparse, Name: "s_lowcard"},
		{ID: 3, Kind: schema.Sparse, Name: "s_ascending"},
		{ID: 4, Kind: schema.Sparse, Name: "s_highcard"},
		{ID: 5, Kind: schema.ScoreList, Name: "sl_lowcard"},
	} {
		if err := ts.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// writtenFile is what one writer run left in storage.
type writtenFile struct {
	raw    []byte
	hashes []uint64
}

func writeAndReadBack(t *testing.T, ts *schema.TableSchema, rows []*schema.Sample, opts WriterOptions) writtenFile {
	t.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	const path = "flush.dwrf"
	w, err := NewWriter(cluster, path, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rows {
		if err := w.WriteRow(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _, err := cluster.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(cluster, path)
	if err != nil {
		t.Fatal(err)
	}
	out := writtenFile{raw: raw}
	for i := 0; i < r.Stripes(); i++ {
		out.hashes = append(out.hashes, r.StripeContentHash(i))
	}
	return out
}

// TestStripeFlushIdenticalAcrossGOMAXPROCS writes the same rows with one,
// two and eight flush workers and requires identical file bytes and
// per-stripe content hashes, for the default, the reordered and the
// plain-pinned layouts.
func TestStripeFlushIdenticalAcrossGOMAXPROCS(t *testing.T) {
	ts := flushSchema(t)
	rows := encRows(300) // 4 full 64-row stripes and a 44-row tail
	layouts := map[string]WriterOptions{
		"default":   {Flatten: true, RowsPerStripe: 64},
		"reordered": {Flatten: true, RowsPerStripe: 64, StreamOrder: []schema.FeatureID{4, 1}},
		"plain":     {Flatten: true, RowsPerStripe: 64, PlainEncodings: true},
	}
	for name, opts := range layouts {
		var base writtenFile
		for _, procs := range []int{1, 2, 8} {
			var got writtenFile
			atProcs(procs, func() { got = writeAndReadBack(t, ts, rows, opts) })
			if procs == 1 {
				base = got
				if len(base.hashes) != 5 {
					t.Fatalf("%s: wrote %d stripes, want 5", name, len(base.hashes))
				}
				continue
			}
			if !bytes.Equal(got.raw, base.raw) {
				t.Fatalf("%s: file bytes at GOMAXPROCS=%d differ from GOMAXPROCS=1 (%d vs %d bytes)",
					name, procs, len(got.raw), len(base.raw))
			}
			for i, h := range got.hashes {
				if h != base.hashes[i] {
					t.Fatalf("%s: stripe %d ContentHash at GOMAXPROCS=%d is %x, at 1 it is %x", name, i, procs, h, base.hashes[i])
				}
			}
		}
	}
}

// TestRegularMapLayoutDeterministic writes the same RM1 rows twice in the
// regular map layout, each time to a fresh cluster: the files and their
// stripe content hashes must be identical. Go randomizes map iteration
// order, so row data must order each row's features itself.
func TestRegularMapLayoutDeterministic(t *testing.T) {
	spec := rm1Spec(0)
	gen := datagen.NewGenerator(spec, 7)
	rows := make([]*schema.Sample, 512)
	for i := range rows {
		rows[i] = gen.Sample()
	}
	opts := WriterOptions{Flatten: false, RowsPerStripe: 256}
	a := writeAndReadBack(t, spec.BuildSchema(), rows, opts)
	b := writeAndReadBack(t, spec.BuildSchema(), rows, opts)
	if !bytes.Equal(a.raw, b.raw) {
		t.Fatalf("two writes of the same rows differ: %d and %d bytes", len(a.raw), len(b.raw))
	}
	if !slices.Equal(a.hashes, b.hashes) {
		t.Fatalf("two writes of the same rows hash to %x and %x", a.hashes, b.hashes)
	}
}

// TestStripeFlushPlainMatchesV1FixtureAcrossGOMAXPROCS re-encodes the
// committed v1 fixture's rows with PlainEncodings at each worker count:
// the stripes must hash to what the v1-era writer produced.
func TestStripeFlushPlainMatchesV1FixtureAcrossGOMAXPROCS(t *testing.T) {
	v1 := openFixture(t, 1)
	opts := fixtureWriterOpts()
	opts.PlainEncodings = true
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			cluster, path, err := writeFixtureTable(opts)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := OpenReader(cluster, path)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Stripes() != v1.Stripes() {
				t.Fatalf("GOMAXPROCS=%d: %d stripes, fixture has %d", procs, plain.Stripes(), v1.Stripes())
			}
			for i := 0; i < v1.Stripes(); i++ {
				if got, want := plain.StripeContentHash(i), v1.StripeContentHash(i); got != want {
					t.Fatalf("GOMAXPROCS=%d stripe %d: ContentHash %x, v1 fixture has %x", procs, i, got, want)
				}
			}
		})
	}
}

// TestStripeBytesUnchanged pins the bytes the writer stores. Six 256-row
// RM1 stripes at each of four sparse cardinalities (every sparse stream
// takes a dictionary at all four) must hash to what the writer stored
// when it compressed with compress/flate's BestSpeed writer and built
// dictionaries by sorting every value. The hashes were re-recorded for
// format v3, whose dictionary streams delta-code their keys and write
// varint gap entry headers (so the few sparse streams v2 delta-coded now
// take dictionaries too); dense and label streams did not move.
func TestStripeBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		card   uint64
		hashes [6]uint64
	}{
		{0, [6]uint64{0xadae6784304d7695, 0xb69d869d33df493b, 0x4003cc8bc832f4e, 0xb131369679558572, 0x1113d958cee53c42, 0x8b9161891ff98b25}},
		{64, [6]uint64{0x4dd3f3283609cb16, 0x5db33175d147e05c, 0x278afcd93b40a41d, 0xcc3aba9ecf75ac05, 0xe335e55a18e6ec9f, 0x2be13b0a98b8f2e1}},
		{4096, [6]uint64{0xcbbbdea9008828c7, 0x3468d090339f5622, 0x11ddbab8852d570e, 0xb944fc443b3db51b, 0x83566253d9bb6084, 0x90767e5bc78ed4e6}},
		{100000, [6]uint64{0xfdee2b076bdd6ddb, 0xcecebf2b29f82f4c, 0xa79ba90c5e1c388f, 0xe788475d4d276460, 0x8740b3fadc98788d, 0xad715574a0095fc2}},
	} {
		r := writeRM1(t, c.card, len(c.hashes))
		for i, want := range c.hashes {
			if got := r.StripeContentHash(i); got != want {
				t.Errorf("card %d stripe %d: ContentHash %x, want %x", c.card, i, got, want)
			}
		}
	}
}

// TestStripeFlushAbsentFeatureFails: a sample carrying a feature the
// schema does not know fails the flush, as it always has.
func TestStripeFlushAbsentFeatureFails(t *testing.T) {
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := flushSchema(t)
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			w, err := NewWriter(cluster, fmt.Sprintf("absent-%d.dwrf", procs), ts, WriterOptions{Flatten: true, RowsPerStripe: 2})
			if err != nil {
				t.Fatal(err)
			}
			rows := encRows(2)
			rows[1].DenseFeatures[99] = 1
			if err := w.WriteRow(rows[0]); err != nil {
				t.Fatal(err)
			}
			err = w.WriteRow(rows[1])
			const want = "dwrf: sample has feature 99 absent from schema flush"
			if err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS=%d: flush error = %v, want %q", procs, err, want)
			}
		})
	}
}

// TestStripeFlushSteadyStateAllocs guards the writer's reuse of encoder
// and deflate state. From the second stripe on a flush may allocate what
// it hands to others — the stripe's footer entry, the append tokens, and
// whatever storage allocates to hold the appended bytes — and little
// else. An encoder's deflate state is about 140 KB (a 128 KB match table),
// so a writer that went back to building it per stream (6 streams a
// stripe here) would overshoot the allowance tenfold.
func TestStripeFlushSteadyStateAllocs(t *testing.T) {
	checkFlushSteadyStateAllocs(t, func() {})
}

// TestStripeFlushSteadyStateAllocsAcrossGC is the same guard with two
// collections before every flush: idle encoders must survive them, or
// each flush after a collection rebuilds its deflate state.
func TestStripeFlushSteadyStateAllocsAcrossGC(t *testing.T) {
	checkFlushSteadyStateAllocs(t, func() {
		runtime.GC()
		runtime.GC()
	})
}

// checkFlushSteadyStateAllocs writes 17 stripes, calling beforeFlush
// before each row that flushes one, and checks what stripes 2..17
// allocated against the allowance.
func checkFlushSteadyStateAllocs(t *testing.T, beforeFlush func()) {
	const (
		stripeRows    = 64
		stripes       = 17
		perStripe     = 64 << 10
		replication   = 2
		storageGrowth = 4 // chunk-doubling slack per replicated stored byte
	)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: replication})
	if err != nil {
		t.Fatal(err)
	}
	rows := encRows(stripeRows * stripes)
	atProcs(2, func() {
		w, err := NewWriter(cluster, "steady.dwrf", flushSchema(t), WriterOptions{Flatten: true, RowsPerStripe: stripeRows})
		if err != nil {
			t.Fatal(err)
		}
		var before runtime.MemStats
		var bytesBefore int64
		for i, s := range rows {
			if i == stripeRows { // the first stripe is flushed: state is built
				runtime.ReadMemStats(&before)
				bytesBefore = cluster.LogicalBytes()
			}
			if i%stripeRows == stripeRows-1 {
				beforeFlush()
			}
			if err := w.WriteRow(s); err != nil {
				t.Fatal(err)
			}
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		appended := cluster.LogicalBytes() - bytesBefore
		if appended <= 0 {
			t.Fatalf("no bytes appended after the first stripe")
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		allowed := int64(stripes-1)*perStripe + storageGrowth*replication*appended
		if got > allowed {
			t.Fatalf("stripes 2..%d allocated %d bytes (%d per stripe) for %d appended bytes, allowance %d: encoder or deflate state is being rebuilt per stripe or per stream",
				stripes, got, got/(stripes-1), appended, allowed)
		}
		t.Logf("stripes 2..%d: %d bytes allocated (%d per stripe), %d appended", stripes, got, got/(stripes-1), appended)
	})
}
