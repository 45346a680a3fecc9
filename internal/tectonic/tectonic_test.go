package tectonic

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"dsi/internal/hw"
	"dsi/internal/tectonic/faults"
)

func newTestCluster(t *testing.T, chunkSize int64) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{Nodes: 5, Replication: 3, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateAppendRead(t *testing.T) {
	c := newTestCluster(t, 16)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello tectonic, this spans several chunks of sixteen bytes")
	if err := c.Append("f", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadAll = %q, want %q", got, data)
	}
}

func TestCreateDuplicate(t *testing.T) {
	c := newTestCluster(t, 16)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("f"); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestReadAtPartial(t *testing.T) {
	c := newTestCluster(t, 8)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ReadAt("f", 6, 6) // crosses the chunk boundary at 8
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "6789ab" {
		t.Fatalf("ReadAt = %q, want 6789ab", got)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	c := newTestCluster(t, 8)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadAt("f", 0, 10); err == nil {
		t.Fatal("read beyond EOF accepted")
	}
	if _, _, err := c.ReadAt("f", -1, 2); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestSealPreventsAppend(t *testing.T) {
	c := newTestCluster(t, 8)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after seal = %v, want ErrClosed", err)
	}
}

func TestNotFound(t *testing.T) {
	c := newTestCluster(t, 8)
	if _, _, err := c.ReadAll("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAll missing = %v, want ErrNotFound", err)
	}
	if err := c.Append("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Append missing = %v, want ErrNotFound", err)
	}
	if err := c.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
}

func TestReplicationFactorStored(t *testing.T) {
	c := newTestCluster(t, 1024)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	if err := c.Append("f", data); err != nil {
		t.Fatal(err)
	}
	if got := c.LogicalBytes(); got != 5000 {
		t.Fatalf("LogicalBytes = %d, want 5000", got)
	}
	if got := c.TotalStoredBytes(); got != 15000 {
		t.Fatalf("TotalStoredBytes = %d, want 15000 (3x replication)", got)
	}
}

func TestDeleteReclaims(t *testing.T) {
	c := newTestCluster(t, 1024)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalStoredBytes(); got != 0 {
		t.Fatalf("TotalStoredBytes after delete = %d, want 0", got)
	}
	if c.Exists("f") {
		t.Fatal("file still exists after delete")
	}
}

func TestList(t *testing.T) {
	c := newTestCluster(t, 8)
	for _, p := range []string{"tables/rm1/p0", "tables/rm1/p1", "tables/rm2/p0"} {
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	got := c.List("tables/rm1/")
	if len(got) != 2 || got[0] != "tables/rm1/p0" || got[1] != "tables/rm1/p1" {
		t.Fatalf("List = %v", got)
	}
	if got := c.List(""); len(got) != 3 {
		t.Fatalf("List(\"\") = %v, want 3 entries", got)
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	c := newTestCluster(t, 8)
	p1 := c.placement("file-a", 0)
	p2 := c.placement("file-a", 0)
	if fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Fatalf("placement not deterministic: %v vs %v", p1, p2)
	}
	seen := map[int]bool{}
	for _, n := range p1 {
		if seen[n] {
			t.Fatalf("placement reuses node %d: %v", n, p1)
		}
		seen[n] = true
	}
	// Different chunks should (usually) land on different primaries;
	// check that across many chunks more than one node serves as primary.
	primaries := map[int]bool{}
	for i := int64(0); i < 20; i++ {
		primaries[c.placement("file-a", i)[0]] = true
	}
	if len(primaries) < 2 {
		t.Fatal("all chunks placed on one primary")
	}
}

func TestIOAccounting(t *testing.T) {
	c := newTestCluster(t, 1024)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("f", make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadAt("f", 0, 3000); err != nil {
		t.Fatal(err)
	}
	// 3000 bytes over 1024-byte chunks = 3 I/Os.
	if got := c.ReadOps.Value(); got != 3 {
		t.Fatalf("ReadOps = %d, want 3", got)
	}
	if got := c.ReadBytes.Value(); got != 3000 {
		t.Fatalf("ReadBytes = %d, want 3000", got)
	}
	if got := c.IOSizes.Count(); got != 3 {
		t.Fatalf("IOSizes count = %d, want 3", got)
	}
	if c.AggregateDiskBusy() <= 0 {
		t.Fatal("no disk busy time accounted")
	}
	c.ResetIOAccounting()
	if c.ReadOps.Value() != 0 || c.IOSizes.Count() != 0 || c.AggregateDiskBusy() != 0 {
		t.Fatal("ResetIOAccounting did not clear")
	}
}

func TestSmallReadsHurtThroughput(t *testing.T) {
	// The Table 12 effect: the same bytes served via small scattered I/Os
	// yield far lower effective storage throughput than chunk-sized reads.
	big, err := NewCluster(Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20, Disk: hw.HDD})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4<<20)
	if err := big.Append("f", data); err != nil {
		t.Fatal(err)
	}

	// Large reads: whole file in chunk-size I/Os.
	if _, _, err := big.ReadAll("f"); err != nil {
		t.Fatal(err)
	}
	// Bytes served per second of aggregate device busy time: Table 12's
	// "storage throughput".
	tput := func() float64 { return float64(big.ReadBytes.Value()) / big.AggregateDiskBusy().Seconds() }
	largeTput := tput()

	big.ResetIOAccounting()
	// Small reads: 20 KB every 128 KB (non-contiguous => seeks).
	for off := int64(0); off+20480 <= 4<<20; off += 128 << 10 {
		if _, _, err := big.ReadAt("f", off, 20480); err != nil {
			t.Fatal(err)
		}
	}
	smallTput := tput()
	if smallTput*5 > largeTput {
		t.Fatalf("small-read throughput %.0f should be <20%% of large-read %.0f", smallTput, largeTput)
	}
}

func TestInsufficientNodes(t *testing.T) {
	if _, err := NewCluster(Options{Nodes: 2, Replication: 3}); err == nil {
		t.Fatal("2 nodes with replication 3 accepted")
	}
}

// Property: any sequence of appends followed by ReadAll returns the
// concatenation, across chunk sizes.
func TestAppendReadRoundTripProperty(t *testing.T) {
	f := func(parts [][]byte, chunkExp uint8) bool {
		cs := int64(1) << (chunkExp%8 + 2) // 4..512 bytes
		c, err := NewCluster(Options{Nodes: 4, Replication: 2, ChunkSize: cs})
		if err != nil {
			return false
		}
		if err := c.Create("f"); err != nil {
			return false
		}
		var want []byte
		for _, p := range parts {
			if err := c.Append("f", p); err != nil {
				return false
			}
			want = append(want, p...)
		}
		got, _, err := c.ReadAll("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random in-bounds read returns the written data whatever
// the fault plane holds — nothing, an idle schedule, or the primary of
// every chunk quarantined — and whichever call serves it, copying or
// borrowing. In the two fault-free modes the read is the primary's
// alone: no recovery work in the trace, none in the cluster's counters.
func TestReadAtRandomAccessProperty(t *testing.T) {
	f := func(data []byte, off16, len16 uint16) bool {
		if len(data) == 0 {
			return true
		}
		// The clock never advances, so 32-byte chunk reads queue behind
		// each other on the primaries' devices; hedging is off so an idle
		// schedule cannot read that queueing as a straggler.
		c, err := NewCluster(Options{Nodes: 4, Replication: 2, ChunkSize: 32, Retry: RetryPolicy{DisableHedge: true}})
		if err != nil {
			return false
		}
		if err := c.Create("f"); err != nil {
			return false
		}
		if err := c.Append("f", data); err != nil {
			return false
		}
		off := int64(off16) % int64(len(data))
		length := int64(len16) % (int64(len(data)) - off + 1)
		fm, _ := c.lookup("f")
		for _, mode := range []string{"no schedule", "idle schedule", "primary quarantined"} {
			faultFree := mode != "primary quarantined"
			switch mode {
			case "idle schedule":
				c.SetFaultSchedule(faults.NewSchedule(1))
			case "primary quarantined":
				c.SetFaultSchedule(nil)
				for i, reps := range fm.replicas {
					c.Quarantine("f", int64(i), reps[0])
				}
			}
			for _, borrow := range []bool{false, true} {
				var got []byte
				var trace ReadTrace
				if borrow {
					got, _, trace, err = c.ReadAtBorrowTraced("f", off, length)
				} else {
					got, trace, err = c.ReadAtTraced("f", off, length)
				}
				if err != nil || !bytes.Equal(got, data[off:off+length]) {
					t.Errorf("%s, borrow=%v: read [%d,%d) = %x, %v", mode, borrow, off, off+length, got, err)
					return false
				}
				for _, sv := range trace.Served {
					if primary := fm.replicas[sv.Chunk][0]; (sv.Node == primary) != faultFree {
						t.Errorf("%s, borrow=%v: chunk %d served by node %d, primary is %d", mode, borrow, sv.Chunk, sv.Node, primary)
						return false
					}
				}
				if !faultFree {
					continue
				}
				if trace.Retries != 0 || trace.Failovers != 0 || trace.Hedges != 0 || trace.Backoff != 0 {
					t.Errorf("%s, borrow=%v: fault-free read paid recovery work: %+v", mode, borrow, trace)
					return false
				}
				if fc := c.FaultCounters(); fc != (FaultCounters{}) {
					t.Errorf("%s, borrow=%v: fault-free counters nonzero: %+v", mode, borrow, fc)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAtBorrowSingleChunk(t *testing.T) {
	c := newTestCluster(t, 16)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello tectonic, this spans several chunks of sixteen bytes")
	if err := c.Append("f", data); err != nil {
		t.Fatal(err)
	}

	// Fully inside one chunk: the read is served zero-copy.
	got, borrowed, _, err := c.ReadAtBorrowTraced("f", 17, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !borrowed {
		t.Fatal("single-chunk read not borrowed")
	}
	if !bytes.Equal(got, data[17:27]) {
		t.Fatalf("borrowed read = %q, want %q", got, data[17:27])
	}
	// Appending more data must not disturb the borrowed slice (chunks
	// are append-only and the borrow is capacity-clamped).
	if err := c.Append("f", bytes.Repeat([]byte("x"), 64)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[17:27]) {
		t.Fatalf("borrowed bytes changed after append: %q", got)
	}

	// Spanning a chunk boundary falls back to the copying path.
	got, borrowed, _, err = c.ReadAtBorrowTraced("f", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if borrowed {
		t.Fatal("cross-chunk read claimed borrowed")
	}
	if !bytes.Equal(got, data[10:30]) {
		t.Fatalf("fallback read = %q, want %q", got, data[10:30])
	}

	// Both paths account identically.
	ops, rb := c.ReadOps.Value(), c.ReadBytes.Value()
	if _, _, _, err := c.ReadAtBorrowTraced("f", 17, 10); err != nil {
		t.Fatal(err)
	}
	if c.ReadOps.Value() != ops+1 || c.ReadBytes.Value() != rb+10 {
		t.Fatalf("borrowed read accounting: ops %d->%d bytes %d->%d",
			ops, c.ReadOps.Value(), rb, c.ReadBytes.Value())
	}
	if _, _, err := c.ReadAt("f", 17, 10); err != nil {
		t.Fatal(err)
	}
	if c.ReadOps.Value() != ops+2 || c.ReadBytes.Value() != rb+20 {
		t.Fatalf("copying read accounting: ops %d bytes %d",
			c.ReadOps.Value(), c.ReadBytes.Value())
	}
}
