package logdevice

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := s.Append("a", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(i) {
			t.Fatalf("Append %d returned LSN %d", i, lsn)
		}
	}
	tail, err := s.Tail("a")
	if err != nil {
		t.Fatal(err)
	}
	if tail != 6 {
		t.Fatalf("Tail = %d, want 6", tail)
	}
}

func TestCreateDuplicateStream(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("a"); err == nil {
		t.Fatal("duplicate stream accepted")
	}
}

func TestUnknownStream(t *testing.T) {
	s := NewStore()
	if _, err := s.Append("x", nil); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("Append = %v, want ErrStreamNotFound", err)
	}
	if _, err := s.ReadFrom("x", 1, 1); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("ReadFrom = %v, want ErrStreamNotFound", err)
	}
}

func TestReadFrom(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append("a", []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadFrom("a", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 4 || recs[2].LSN != 6 {
		t.Fatalf("ReadFrom = %+v", recs)
	}
	if string(recs[0].Payload) != "r3" {
		t.Fatalf("payload = %q, want r3", recs[0].Payload)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	if _, err := s.Append("a", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	recs, err := s.ReadFrom("a", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Payload) != "original" {
		t.Fatalf("payload aliased caller buffer: %q", recs[0].Payload)
	}
}

func TestMemtableSealing(t *testing.T) {
	s := NewStore()
	s.memtableFlushBytes = 10
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append("a", []byte("12345")); err != nil { // 5 bytes each
			t.Fatal(err)
		}
	}
	n, err := s.SegmentCount("a")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("SegmentCount = %d, want 3", n)
	}
	// Reads must span segments + memtable seamlessly.
	recs, err := s.ReadFrom("a", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("ReadFrom returned %d records, want 6", len(recs))
	}
}

func TestTrim(t *testing.T) {
	s := NewStore()
	s.memtableFlushBytes = 4
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append("a", []byte{byte(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Trim("a", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFrom("a", 3, 1); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("read below trim = %v, want ErrTrimmed", err)
	}
	recs, err := s.ReadFrom("a", 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].LSN != 6 {
		t.Fatalf("ReadFrom(6) = %+v", recs)
	}
	bytes, err := s.StoredBytes("a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 10 { // 5 records x 2 bytes
		t.Fatalf("StoredBytes = %d, want 10", bytes)
	}
	tp, err := s.TrimPoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if tp != 5 {
		t.Fatalf("TrimPoint = %d, want 5", tp)
	}
}

func TestTrimIdempotentAndBackwardsNoop(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Append("a", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Trim("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Trim("a", 2); err != nil { // backwards: no-op
		t.Fatal(err)
	}
	tp, _ := s.TrimPoint("a")
	if tp != 3 {
		t.Fatalf("TrimPoint = %d, want 3", tp)
	}
}

func TestTrimMidSegment(t *testing.T) {
	s := NewStore()
	s.memtableFlushBytes = 6
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // two segments of 3 records (2 bytes each)
		if _, err := s.Append("a", []byte{byte(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Trim("a", 2); err != nil { // cuts into the first segment
		t.Fatal(err)
	}
	recs, err := s.ReadFrom("a", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].LSN != 3 {
		t.Fatalf("ReadFrom(3) = %+v", recs)
	}
}

func TestSealStopsAppendsButNotReads(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("a"); err != nil { // idempotent
		t.Fatal(err)
	}
	sealed, err := s.IsSealed("a")
	if err != nil || !sealed {
		t.Fatalf("IsSealed = %v, %v, want true", sealed, err)
	}
	if _, err := s.Append("a", []byte("y")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Append after seal = %v, want ErrSealed", err)
	}
	recs, err := s.ReadFrom("a", 1, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReadFrom after seal = %v, %v", recs, err)
	}
	if err := s.Trim("a", 1); err != nil {
		t.Fatal(err)
	}
}

func TestChangedFiresOnAppendAndSeal(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("a"); err != nil {
		t.Fatal(err)
	}
	ch, err := s.Changed("a")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("channel fired before any change")
	default:
	}
	if _, err := s.Append("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("channel did not fire on append")
	}
	ch2, err := s.Changed("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch2:
	default:
		t.Fatal("channel did not fire on seal")
	}
}

// Property: after n appends, ReadFrom(1) returns records 1..n in order
// regardless of flush threshold.
func TestReadOrderProperty(t *testing.T) {
	f := func(payloads [][]byte, flushExp uint8) bool {
		s := NewStore()
		s.memtableFlushBytes = int64(flushExp%64) + 1
		if err := s.CreateStream("a"); err != nil {
			return false
		}
		for _, p := range payloads {
			if _, err := s.Append("a", p); err != nil {
				return false
			}
		}
		recs, err := s.ReadFrom("a", 1, len(payloads)+1)
		if err != nil {
			return false
		}
		if len(recs) != len(payloads) {
			return false
		}
		for i, r := range recs {
			if r.LSN != LSN(i+1) || string(r.Payload) != string(payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: StoredBytes equals the sum of retained payload lengths after
// arbitrary trims.
func TestStoredBytesProperty(t *testing.T) {
	f := func(sizes []uint8, trimAt uint8) bool {
		s := NewStore()
		s.memtableFlushBytes = 16
		if err := s.CreateStream("a"); err != nil {
			return false
		}
		var total int64
		for _, sz := range sizes {
			p := make([]byte, int(sz)%16)
			if _, err := s.Append("a", p); err != nil {
				return false
			}
			total += int64(len(p))
		}
		trim := LSN(trimAt) % LSN(len(sizes)+2)
		if err := s.Trim("a", trim); err != nil {
			return false
		}
		var want int64
		for i, sz := range sizes {
			if LSN(i+1) > trim {
				want += int64(sz) % 16
			}
		}
		got, err := s.StoredBytes("a")
		if err != nil {
			return false
		}
		_ = total
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
