package dpp

import (
	"strings"
	"testing"

	"dsi/internal/tectonic/faults"
)

// TestReleaseSplitRequeues exercises the degraded-mode control plane: a
// worker hands a leased split back, the master requeues it at the back
// of the pending queue, and another worker picks it up.
func TestReleaseSplitRequeues(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w2", ""); err != nil {
		t.Fatal(err)
	}

	_, splitID, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatalf("NextSplit: ok=%v err=%v", ok, err)
	}
	requeued, err := m.ReleaseSplit("w1", splitID, "storage fault")
	if err != nil || !requeued {
		t.Fatalf("ReleaseSplit: requeued=%v err=%v", requeued, err)
	}
	if rel := m.SplitReleases(); rel[splitID] != 1 {
		t.Fatalf("SplitReleases[%d] = %d, want 1", splitID, rel[splitID])
	}

	// The released split went to the back: w2 drains every other pending
	// split first and gets the released one last.
	var got []int
	for {
		_, id, ok, _, err := m.NextSplit("w2")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, id)
	}
	if len(got) != m.SplitCount() {
		t.Fatalf("w2 drained %d splits, want %d", len(got), m.SplitCount())
	}
	if got[len(got)-1] != splitID {
		t.Fatalf("released split %d not requeued at the back: drain order %v", splitID, got)
	}
}

// TestReleaseSplitStaleLeaseBenign: releasing a split this worker no
// longer holds (completed, or re-leased elsewhere) is an idempotent ack,
// like a duplicate CompleteSplit.
func TestReleaseSplitStaleLeaseBenign(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	_, splitID, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatalf("NextSplit: ok=%v err=%v", ok, err)
	}
	if err := m.CompleteSplit("w1", splitID); err != nil {
		t.Fatal(err)
	}
	requeued, err := m.ReleaseSplit("w1", splitID, "late failure")
	if err != nil || !requeued {
		t.Fatalf("release after completion: requeued=%v err=%v", requeued, err)
	}
	if rel := m.SplitReleases(); rel[splitID] != 0 {
		t.Fatalf("completed split accrued poison: %v", rel)
	}
	if _, err := m.ReleaseSplit("w1", len(m.splits)+5, "x"); err == nil {
		t.Fatal("unknown split release accepted")
	}
}

// TestReleaseSplitPoisonBudget: a split released over and over exhausts
// its retry budget; the session latches a permanent failure that Done
// surfaces to every worker.
func TestReleaseSplitPoisonBudget(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	spec.RetryBudget = 3
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}

	// Lease and release the same split until the budget runs out. The
	// released split requeues at the back, so drain forward to it.
	var poisoned int
	for i := 0; i < 3; i++ {
		var splitID int
		for {
			_, id, ok, _, err := m.NextSplit("w1")
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("pending queue empty before poison budget spent")
			}
			if i == 0 || id == poisoned {
				splitID = id
				break
			}
			// Not the victim: release it too? No — complete it would end
			// the session. Just keep this lease parked; leases per worker
			// are unbounded.
		}
		if i == 0 {
			poisoned = splitID
		}
		requeued, err := m.ReleaseSplit("w1", splitID, "persistent storage fault")
		if err != nil {
			t.Fatal(err)
		}
		wantRequeue := i < 2 // third release exhausts RetryBudget=3
		if requeued != wantRequeue {
			t.Fatalf("release %d: requeued=%v, want %v", i+1, requeued, wantRequeue)
		}
	}

	done, err := m.Done()
	if done {
		t.Fatal("poisoned session reported done")
	}
	if err == nil {
		t.Fatal("poisoned session reported healthy")
	}
	if !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), "persistent storage fault") {
		t.Fatalf("poison error lost its cause: %v", err)
	}
}

// TestWorkerReleasesSplitOnStorageOutage is degraded mode at the worker:
// every replica goes Down under a worker whose readers are already
// resident, so the failure lands in the stripe fetch. The step hands the
// split back instead of failing, and the retries the fetch spent before
// giving up still reach the resource report.
func TestWorkerReleasesSplitOnStorageOutage(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w1", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	w.Sink = func(*blob) { t.Fatal("a batch was delivered from a cluster that is down") }
	for _, sp := range m.splits {
		if _, err := wh.CachedReader(sp.Path); err != nil {
			t.Fatal(err)
		}
	}
	outage := faults.NewSchedule(1)
	for n := 0; n < 4; n++ {
		outage.Down(n, 0, 0)
	}
	wh.Cluster().SetFaultSchedule(outage)

	ok, err := w.ProcessOneSplit()
	if err != nil || !ok {
		t.Fatalf("ProcessOneSplit under outage: ok=%v err=%v, want the split released", ok, err)
	}
	rep := w.Report()
	if rep.SplitsReleased != 1 || rep.SplitsDone != 0 {
		t.Fatalf("SplitsReleased=%d SplitsDone=%d, want 1 and 0", rep.SplitsReleased, rep.SplitsDone)
	}
	if rep.StorageRetries == 0 {
		t.Fatalf("the failed read's retries never reached the report: %+v", rep.Recovery)
	}
	if rel := m.SplitReleases(); len(rel) != 1 {
		t.Fatalf("master saw releases %v, want exactly one split released once", rel)
	}
}
