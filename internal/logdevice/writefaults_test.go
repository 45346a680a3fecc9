package logdevice

import (
	"errors"
	"testing"

	"dsi/internal/tectonic/faults"
)

func TestWriteFaultAppendFailsCleanly(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(1).FailWrites(0, 0, 0, 1), nil)
	if _, _, err := s.AppendToken("log", "t1", []byte("x")); !errors.Is(err, faults.ErrNodeIO) {
		t.Fatalf("append under p=1 write failure: %v, want ErrNodeIO", err)
	}
	// Nothing landed: the stream is empty and the token unknown.
	if tail, _ := s.Tail("log"); tail != 1 {
		t.Fatalf("failed append advanced the tail to %d", tail)
	}
	if fc := s.WriteFaultCounters(); fc.Failures == 0 {
		t.Fatalf("failure not counted: %+v", fc)
	}
}

func TestWriteFaultTornAckDedupsOnRetry(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(2).TornWrites(0, 0, 0, 1), nil)

	_, _, err := s.AppendToken("log", "t1", []byte("hello"))
	if !errors.Is(err, faults.ErrTornAck) {
		t.Fatalf("append under p=1 torn acks: %v, want ErrTornAck", err)
	}
	if !faults.IsRetryable(err) {
		t.Fatal("torn ack not classified retryable")
	}
	// The record landed despite the lost ack; the tokened retry must
	// return its LSN without appending again.
	lsn, dup, err := s.AppendToken("log", "t1", []byte("hello"))
	if err != nil || !dup || lsn != 1 {
		t.Fatalf("retry: lsn=%d dup=%v err=%v, want 1/true/nil", lsn, dup, err)
	}
	recs, err := s.ReadFrom("log", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "hello" {
		t.Fatalf("stream holds %d records, want exactly one", len(recs))
	}
	fc := s.WriteFaultCounters()
	if fc.TornAcks == 0 || fc.DedupHits == 0 {
		t.Fatalf("torn ack / dedup not counted: %+v", fc)
	}
}

func TestWriteFaultDownFailsAppends(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(3).Down(0, 0, 0), nil)
	if _, err := s.Append("log", []byte("x")); !errors.Is(err, faults.ErrNodeDown) {
		t.Fatalf("append to down store: %v, want ErrNodeDown", err)
	}
	s.SetWriteFaults(nil, nil)
	if _, err := s.Append("log", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFaultTokensTrimmedWithRecords(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(4), nil) // idle schedule: ledger active, no faults
	for i, tok := range []string{"a", "b", "c"} {
		if _, _, err := s.AppendToken("log", tok, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Trim("log", 2); err != nil {
		t.Fatal(err)
	}
	st, err := s.lookup("log")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.tokens) != 1 {
		t.Fatalf("ledger holds %d tokens after trim, want 1", len(st.tokens))
	}
	if lsn, ok := st.tokens["c"]; !ok || lsn != 3 {
		t.Fatalf("surviving token wrong: %v", st.tokens)
	}
}

// A tailer may consume and trim a record whose ack was lost before the
// producer retries it (the live ETL does, now that it wakes on the
// append): the retry must still dedup, not append a second copy, and
// the ledger entry kept for it leaves once it is answered.
func TestWriteFaultTornTokenSurvivesTrim(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(2).TornWrites(0, 0, 0, 1), nil)
	if _, _, err := s.AppendToken("log", "t1", []byte("hello")); !errors.Is(err, faults.ErrTornAck) {
		t.Fatalf("append under p=1 torn acks: %v, want ErrTornAck", err)
	}
	if err := s.Trim("log", 1); err != nil {
		t.Fatal(err)
	}
	lsn, dup, err := s.AppendToken("log", "t1", []byte("hello"))
	if err != nil || !dup || lsn != 1 {
		t.Fatalf("retry after trim: lsn=%d dup=%v err=%v, want 1/true/nil", lsn, dup, err)
	}
	if tail, err := s.Tail("log"); err != nil || tail != 2 {
		t.Fatalf("tail = %d, %v after the retry, want 2: the retry appended a second copy", tail, err)
	}
	st, err := s.lookup("log")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.tokens) != 0 || len(st.unacked) != 0 {
		t.Fatalf("ledger kept %d tokens, %d unacked after the answered retry, want none", len(st.tokens), len(st.unacked))
	}
}

func TestWriteFaultNoScheduleKeepsNoLedger(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendToken("log", "t1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := s.lookup("log")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tokens != nil {
		t.Fatal("fault-free append allocated a token ledger")
	}
}

func TestWriteFaultReadStatesInvisibleToAppends(t *testing.T) {
	// Read-shaped windows (Flaky) must not perturb appends.
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFaults(faults.NewSchedule(5).Flaky(0, 0, 0, 1), nil)
	if _, err := s.Append("log", []byte("x")); err != nil {
		t.Fatal(err)
	}
}
