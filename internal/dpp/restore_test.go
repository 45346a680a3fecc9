package dpp

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"dsi/internal/tensor"
	"dsi/internal/warehouse"
)

// TestFleetWorkerAssignedAtRegistration pins the launch-to-first-lease
// path: a fleet worker's registration already runs the fair-share
// rebalance for it, so its first heartbeat — which FleetWorker.Run sends
// immediately — carries the assignment without any control Step.
func TestFleetWorkerAssignedAtRegistration(t *testing.T) {
	_, l, svc := newFakeClockOrchestrator(t, 1, 4)
	if _, err := l.Launch(FleetIDPrefix + "-0"); err != nil {
		t.Fatal(err)
	}
	d, err := svc.FleetHeartbeat(FleetIDPrefix+"-0", WorkerStats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sessions) != 1 || d.Sessions[0] != fakeSessionID {
		t.Fatalf("first heartbeat carried assignments %v, want [%s] with no Step run", d.Sessions, fakeSessionID)
	}
}

// goldenSum digests one whole session delivered by a single worker.
func goldenSum(t *testing.T, wh *warehouse.Warehouse, spec SessionSpec) *tensor.ContentSum {
	t.Helper()
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("golden", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	sum := tensor.NewContentSum()
	w.Sink = sum.AddBatch
	if err := w.Run(nil); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestServiceCheckpointRoundTrip is the failover path of the one control
// plane: a two-session service — one bounded session, one tailing an
// unbounded table — is checkpointed mid-session, both sessions are
// restored into a fresh Service over the same warehouse, and both
// tenants finish there. Splits the checkpoint records as completed are
// never leased again, a lease that was only in flight re-runs, the
// partition sealed after the checkpoint is picked up behind the restored
// prefix, and each tenant's content over both services equals a whole
// session's.
func TestServiceCheckpointRoundTrip(t *testing.T) {
	wh, bounded := buildFixture(t, 64, 16) // "rm": 8 splits, 128 rows
	live, tailing := addUnboundedTable(t, wh, 16)
	sealPartitionAt(t, live, "part-000000", 32, 0) // 2 splits
	specs := map[string]SessionSpec{"bounded": bounded, "tailing": tailing}
	finished := map[string]int{"bounded": 3, "tailing": 1}

	primary := NewService(wh)
	sums := make(map[string]*tensor.ContentSum)
	delivered := make(map[string]map[int32]bool)
	for id, spec := range specs {
		if err := primary.CreateSession(id, spec); err != nil {
			t.Fatal(err)
		}
		m, err := primary.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		// Mid-session, deterministically: one pipeline runs some splits
		// to full consumption (each completes at the master when its last
		// batch is popped), then holds one more lease it never finishes.
		w, err := NewWorker("primary-w", m, wh)
		if err != nil {
			t.Fatal(err)
		}
		sums[id] = tensor.NewContentSum()
		delivered[id] = make(map[int32]bool)
		for i := 0; i < finished[id]; i++ {
			if ok, err := w.ProcessOneSplit(); err != nil || !ok {
				t.Fatalf("session %s split %d: ok=%v err=%v", id, i, ok, err)
			}
			for {
				b, ok, _, err := popBatch(w)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				sums[id].AddBatch(b)
				delivered[id][b.Split] = true
			}
		}
		if _, _, ok, _, err := m.NextSplit("primary-w"); err != nil || !ok {
			t.Fatalf("session %s in-flight lease: ok=%v err=%v", id, ok, err)
		}
	}
	ckpt, err := primary.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// The ETL seals one more partition after the checkpoint was taken.
	sealPartitionAt(t, live, "part-000001", 16, 0)
	if err := live.CloseStream(); err != nil {
		t.Fatal(err)
	}

	states, err := DecodeServiceCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	replica := NewService(wh)
	wantTotal := map[string]int{"bounded": 8, "tailing": 3}
	for id, spec := range specs {
		if err := replica.RestoreSession(id, spec, states[id]); err != nil {
			t.Fatalf("restore %s: %v", id, err)
		}
		m, err := replica.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		if done, total := m.Progress(); done != finished[id] || total != wantTotal[id] {
			t.Fatalf("session %s restored at %d/%d, want %d/%d", id, done, total, finished[id], wantTotal[id])
		}
	}
	// RestoreSession is CreateSession from a checkpoint: same registry rules.
	if err := replica.RestoreSession("bounded", bounded, states["bounded"]); err == nil {
		t.Fatal("duplicate session restored")
	}

	launcher := &FleetLauncher{
		Service:        replica,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
		OnError:        func(id string, err error) { t.Errorf("replica worker %s: %v", id, err) },
	}
	o := NewOrchestrator(replica, launcher, NewAutoScaler(2, 2))
	o.ScaleInterval = time.Millisecond
	stopAndWait := runFleetLoop(t, o)
	for id := range specs {
		client, err := NewTenantClient(replica, id, SessionWorkerDialer(id), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		client.RefreshEvery = 500 * time.Microsecond
		for {
			b, ok, err := client.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if delivered[id][b.Split] {
				t.Fatalf("session %s: split %d completed before the checkpoint was leased again", id, b.Split-1)
			}
			sums[id].AddBatch(b)
		}
	}
	stopAndWait()

	for id, spec := range specs {
		if !sums[id].Equal(goldenSum(t, wh, spec)) {
			t.Fatalf("session %s: content across the failover differs from a whole session (%d rows delivered)", id, sums[id].Rows)
		}
	}
}

// restoreFixture is the warehouse the restore fuzz targets share: a
// bounded table of 8 splits and an unbounded one with 2 sealed.
func restoreFixture(f *testing.F) (*warehouse.Warehouse, map[string]SessionSpec) {
	f.Helper()
	wh, bounded := buildFixture(f, 64, 16)
	live, tailing := addUnboundedTable(f, wh, 16)
	sealPartitionAt(f, live, "part-000000", 32, 0)
	return wh, map[string]SessionSpec{"bounded": bounded, "tailing": tailing}
}

// checkpointOf leases and completes the first n splits of a fresh
// session and returns its checkpoint.
func checkpointOf(f *testing.F, wh *warehouse.Warehouse, spec SessionSpec, n int) []byte {
	f.Helper()
	m, err := NewMaster(wh, spec)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.RegisterWorker("w", ""); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, id, ok, _, err := m.NextSplit("w")
		if err != nil || !ok {
			f.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
		}
		if err := m.CompleteSplit("w", id); err != nil {
			f.Fatal(err)
		}
	}
	ckpt, err := m.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	return ckpt
}

// addTruncations seeds data and every proper prefix of it.
func addTruncations(f *testing.F, data []byte) {
	for n := 0; n <= len(data); n++ {
		f.Add(data[:n])
	}
}

// checkRestored restores checkpoint as a session of a fresh service and
// checks what a decoder of untrusted reader state owes its caller: an
// error, or a session whose progress is within its split count and
// whose completed and pending splits together are exactly the splits
// the warehouse enumerates — and never a session restored from a
// checkpoint that covers more splits than it has.
func checkRestored(t *testing.T, wh *warehouse.Warehouse, spec SessionSpec, checkpoint []byte) {
	t.Helper()
	fresh, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := fresh.SplitCount()

	svc := NewService(wh)
	err = svc.RestoreSession("s", spec, checkpoint)
	var state checkpointState
	if gob.NewDecoder(bytes.NewReader(checkpoint)).Decode(&state) == nil && len(state.Completed) > enumerated && err == nil {
		t.Fatalf("checkpoint covering %d splits restored into a session of %d", len(state.Completed), enumerated)
	}
	if err != nil {
		return
	}
	m, err := svc.Master("s")
	if err != nil {
		t.Fatal(err)
	}
	done, total := m.Progress()
	if total != enumerated || done < 0 || done > total {
		t.Fatalf("restored progress %d/%d over %d enumerated splits", done, total, enumerated)
	}
	if _, err := m.RegisterWorker("w", ""); err != nil {
		t.Fatal(err)
	}
	if pending := drainSplits(t, m, "w"); done+pending != total {
		t.Fatalf("restored session: %d completed + %d pending != %d splits", done, pending, total)
	}
}

// FuzzRestoreSession feeds arbitrary bytes to the per-session checkpoint
// decoder, against a bounded and an unbounded session.
func FuzzRestoreSession(f *testing.F) {
	wh, specs := restoreFixture(f)
	addTruncations(f, checkpointOf(f, wh, specs["bounded"], 3))
	addTruncations(f, checkpointOf(f, wh, specs["tailing"], 1))
	// unbounded_test.go's oversized case: a checkpoint from a session
	// with more splits than either of these has.
	bigWH, bigSpec := buildFixture(f, 96, 16)
	f.Add(checkpointOf(f, bigWH, bigSpec, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range specs {
			checkRestored(t, wh, spec, data)
		}
	})
}

// FuzzDecodeServiceCheckpoint feeds arbitrary bytes to the service
// checkpoint decoder and restores whatever sessions come out of it.
func FuzzDecodeServiceCheckpoint(f *testing.F) {
	wh, specs := restoreFixture(f)
	svc := NewService(wh)
	for id, spec := range specs {
		if err := svc.CreateSession(id, spec); err != nil {
			f.Fatal(err)
		}
		m, err := svc.Master(id)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := m.RegisterWorker("w", ""); err != nil {
			f.Fatal(err)
		}
		_, split, ok, _, err := m.NextSplit("w")
		if err != nil || !ok {
			f.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		if err := m.CompleteSplit("w", split); err != nil {
			f.Fatal(err)
		}
	}
	ckpt, err := svc.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	addTruncations(f, ckpt)
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, err := DecodeServiceCheckpoint(data)
		if err != nil {
			return
		}
		for id, state := range sessions {
			spec, ok := specs[id]
			if !ok {
				spec = specs["bounded"]
			}
			checkRestored(t, wh, spec, state)
		}
	})
}
