package logdevice

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTailerSeesSealNotify pins the notify-after-seal
// contract: a tailer blocked on Changed when the producer seals the
// stream must be woken and observe the seal, not sleep forever. Run
// with -race; the waiter and sealer race by construction.
func TestConcurrentTailerSeesSealNotify(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("log", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	woken := make(chan error, 1)
	armed := make(chan struct{})
	go func() {
		ch, err := s.Changed("log")
		if err != nil {
			woken <- err
			return
		}
		close(armed)
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			woken <- errors.New("tailer never woken by seal")
			return
		}
		sealed, err := s.IsSealed("log")
		if err != nil {
			woken <- err
			return
		}
		if !sealed {
			woken <- errors.New("woken tailer does not observe the seal")
			return
		}
		woken <- nil
	}()

	<-armed
	if err := s.Seal("log"); err != nil {
		t.Fatal(err)
	}
	if err := <-woken; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadAtTrimPoint pins the trim-point edge under a racing
// trimmer: reading AT the trim point is ErrTrimmed, reading one past it
// succeeds, and a reader that chases the trimmer never sees a record
// below it.
func TestConcurrentReadAtTrimPoint(t *testing.T) {
	s := NewStore()
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	const total = 500
	for i := 0; i < total; i++ {
		if _, err := s.Append("log", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		for upTo := LSN(1); upTo <= total/2; upTo++ {
			if err := s.Trim("log", upTo); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tp, err := s.TrimPoint("log")
			if err != nil {
				errs <- err
				return
			}
			// AT the trim point: must be rejected (when anything is trimmed).
			if tp > 0 {
				if _, err := s.ReadFrom("log", tp, 1); !errors.Is(err, ErrTrimmed) {
					errs <- fmt.Errorf("read at trim point %d: %v, want ErrTrimmed", tp, err)
					return
				}
			}
			// One past the point observed above: a concurrent trim may have
			// passed it, but a success must never surface a trimmed record.
			recs, err := s.ReadFrom("log", tp+1, 4)
			if err != nil && !errors.Is(err, ErrTrimmed) {
				errs <- err
				return
			}
			for _, r := range recs {
				if r.LSN <= tp {
					errs <- fmt.Errorf("read surfaced record %d below observed trim point %d", r.LSN, tp)
					return
				}
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	tp, err := s.TrimPoint("log")
	if err != nil {
		t.Fatal(err)
	}
	if tp != total/2 {
		t.Fatalf("final trim point %d, want %d", tp, total/2)
	}
	if _, err := s.ReadFrom("log", tp, 1); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("read at final trim point: %v, want ErrTrimmed", err)
	}
	recs, err := s.ReadFrom("log", tp+1, 1)
	if err != nil || len(recs) != 1 || recs[0].LSN != tp+1 {
		t.Fatalf("read past final trim point: recs=%v err=%v", recs, err)
	}
}

// TestConcurrentTrimChangedSealLoop hammers the full lifecycle under
// -race: a producer appends and finally seals, a tailer follows via
// Changed and must deliver every record it starts responsible for
// exactly once and in order, while a trimmer chases the tailer's
// consumed prefix.
func TestConcurrentTrimChangedSealLoop(t *testing.T) {
	s := NewStore()
	s.memtableFlushBytes = 64 // force frequent segment seals
	if err := s.CreateStream("log"); err != nil {
		t.Fatal(err)
	}
	const total = 2000

	var consumed LSN // atomic-ish via mutex below
	var mu sync.Mutex
	errs := make(chan error, 3)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if _, err := s.Append("log", []byte(fmt.Sprintf("r%d", i))); err != nil {
				errs <- err
				return
			}
		}
		if err := s.Seal("log"); err != nil {
			errs <- err
		}
	}()

	wg.Add(1)
	go func() { // tailer: deliver 1..total exactly once, in order
		defer wg.Done()
		next := LSN(1)
		for {
			recs, err := s.ReadFrom("log", next, 64)
			if err != nil {
				errs <- err
				return
			}
			for _, r := range recs {
				if r.LSN != next {
					errs <- fmt.Errorf("tailer got lsn %d, want %d", r.LSN, next)
					return
				}
				if want := fmt.Sprintf("r%d", next); string(r.Payload) != want {
					errs <- fmt.Errorf("lsn %d payload %q, want %q", next, r.Payload, want)
					return
				}
				next++
			}
			mu.Lock()
			consumed = next - 1
			mu.Unlock()
			if next > total {
				return
			}
			if len(recs) == 0 {
				ch, err := s.Changed("log")
				if err != nil {
					errs <- err
					return
				}
				// Re-check after arming: the producer may have appended (or
				// sealed) between the empty read and Changed.
				if tail, err := s.Tail("log"); err != nil {
					errs <- err
					return
				} else if tail > next {
					continue
				}
				if sealed, err := s.IsSealed("log"); err != nil {
					errs <- err
					return
				} else if sealed {
					errs <- fmt.Errorf("stream sealed with tailer at %d of %d", next-1, total)
					return
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					errs <- errors.New("tailer starved")
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() { // trimmer: chase the consumed prefix
		defer wg.Done()
		for {
			mu.Lock()
			c := consumed
			mu.Unlock()
			if c > 0 {
				if err := s.Trim("log", c); err != nil {
					errs <- err
					return
				}
			}
			if c >= total {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if tp, _ := s.TrimPoint("log"); tp != total {
		t.Fatalf("final trim point %d, want %d", tp, total)
	}
	if n, _ := s.StoredBytes("log"); n != 0 {
		t.Fatalf("stream retains %d bytes after full trim", n)
	}
}
