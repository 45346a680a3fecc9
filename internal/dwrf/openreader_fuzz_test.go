package dwrf

import (
	"encoding/binary"
	"testing"

	"dsi/internal/tectonic"
)

// fuzzFileSeeds builds one valid DWRF file image plus a set of hostile
// tail/footer mutations of it: truncations, clobbered magic, footer
// lengths that lie (zero, negative-as-unsigned, past the file start),
// and bit flips inside the gob-encoded footer itself.
func fuzzFileSeeds(t testing.TB) [][]byte {
	t.Helper()
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := buildSchema(t, 2, 1)
	rows := genRows(ts, 48, 0.8, 5)
	writeFile(t, c, "seed", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 16})
	valid, _, err := c.ReadAll("seed")
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), valid...))
	}
	tailLen := 8 + len(Magic)
	seeds := [][]byte{
		valid,
		{},           // empty file
		[]byte("DW"), // shorter than the tail
		mutate(func(b []byte) []byte { return b[:len(b)-1] }),           // magic cut short
		mutate(func(b []byte) []byte { return b[:len(b)-tailLen] }),     // tail gone
		mutate(func(b []byte) []byte { return b[:len(b)-tailLen/2] }),   // tail split
		mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), /* magic clobbered */
		mutate(func(b []byte) []byte { // footerLen = 0
			binary.LittleEndian.PutUint64(b[len(b)-tailLen:], 0)
			return b
		}),
		mutate(func(b []byte) []byte { // footerLen huge (negative as int64)
			binary.LittleEndian.PutUint64(b[len(b)-tailLen:], ^uint64(0))
			return b
		}),
		mutate(func(b []byte) []byte { // footerLen past the file start
			binary.LittleEndian.PutUint64(b[len(b)-tailLen:], uint64(len(b)))
			return b
		}),
		mutate(func(b []byte) []byte { // footerLen off by one into stripe data
			n := binary.LittleEndian.Uint64(b[len(b)-tailLen:])
			binary.LittleEndian.PutUint64(b[len(b)-tailLen:], n+1)
			return b
		}),
		mutate(func(b []byte) []byte { // footerLen short by one: the footer's first byte skipped
			n := binary.LittleEndian.Uint64(b[len(b)-tailLen:])
			binary.LittleEndian.PutUint64(b[len(b)-tailLen:], n-1)
			return b
		}),
	}
	// Bit flips marching through the gob footer: offsets and lengths in
	// the decoded StripeMeta must be range-checked, not trusted.
	footerLen := int(binary.LittleEndian.Uint64(valid[len(valid)-tailLen:]))
	footerStart := len(valid) - tailLen - footerLen
	for i := 0; i < footerLen; i += 7 {
		off := footerStart + i
		seeds = append(seeds, mutate(func(b []byte) []byte {
			b[off] ^= 0x10
			return b
		}))
	}
	return seeds
}

// fuzzOpenReader writes an arbitrary byte image as a cluster file and
// opens it. OpenReader and the stripe reads below it must either
// succeed or return an error — never panic, never index past the file
// from footer-claimed offsets.
func fuzzOpenReader(t testing.TB, data []byte) {
	t.Helper()
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("fz"); err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if err := c.Append("fz", data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal("fz"); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(c, "fz")
	if err != nil {
		return // hostile bytes rejected: the only other acceptable outcome
	}
	// The footer parsed; every stripe it claims must now decode or error
	// cleanly. Cap the walk so a footer claiming millions of stripes
	// can't turn one fuzz case into a long loop.
	stripes := r.Stripes()
	if stripes > 8 {
		stripes = 8
	}
	arena := NewArena()
	for i := 0; i < stripes; i++ {
		if b, _, err := r.ReadStripe(i, nil, ReadOptions{}, arena); err == nil {
			if b.Rows != r.StripeRows(i) {
				t.Fatalf("stripe %d decoded %d rows, footer claims %d", i, b.Rows, r.StripeRows(i))
			}
			if len(b.Labels) != b.Rows {
				t.Fatalf("stripe %d decoded %d labels over %d rows", i, len(b.Labels), b.Rows)
			}
			b.Release()
		}
	}
}

func FuzzOpenReader(f *testing.F) {
	for _, seed := range fuzzFileSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOpenReader(t, data)
	})
}

// TestFuzzOpenReaderSeedCorpus runs the hostile-tail corpus through the
// fuzz body deterministically, so plain `go test` (and the race-enabled
// CI job) keeps the coverage without the fuzz engine.
func TestFuzzOpenReaderSeedCorpus(t *testing.T) {
	for _, seed := range fuzzFileSeeds(t) {
		fuzzOpenReader(t, seed)
	}
}
