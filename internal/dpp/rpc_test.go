package dpp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/warehouse"
)

// controlPlane is the surface a tenant and a fleet worker drive: the
// session registry plus FleetControl. *Service is it in process and
// *RemoteService over TCP.
type controlPlane interface {
	FleetControl
	CreateSession(id string, spec SessionSpec) error
	CloseSession(id string) error
	ListSessions() ([]SessionInfo, error)
}

// controlSide is one end of the conformance script: a control plane,
// the Service behind it, its AwaitWork, and the state a step hands the
// next.
type controlSide struct {
	cp     controlPlane
	svc    *Service
	await  func(session string, seen int64) (int64, error)
	m      MasterAPI // session "s"'s control plane, taken while it was open
	leased []int
}

// gobNormal returns v after a gob round trip, which is what a reply
// crossing the wire goes through: empty slices come back nil.
func gobNormal(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := gob.NewDecoder(&buf).DecodeValue(out); err != nil {
		t.Fatal(err)
	}
	return out.Elem().Interface()
}

// TestControlOverTCPMatchesInProcess runs one script of every control
// op against two Services over the same warehouse — one served and
// dialed, one called in process — and requires the same answer at each
// step: equal values, or the same error text, or (for a session closed
// under a held master) disownment on both. The script is run on two
// Services, not one, because a mutating op answers differently the
// second time it runs on one ledger.
func TestControlOverTCPMatchesInProcess(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	direct := NewService(wh)
	served := NewService(wh)
	ln, stop, err := ServeService(served, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rs, err := DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	sides := [2]*controlSide{
		{cp: rs, svc: served, await: func(session string, seen int64) (int64, error) {
			reply, err := call(rs.client, ControlCall{Op: opAwaitWork, Session: session, Seen: seen})
			return reply.Token, err
		}},
		{cp: direct, svc: direct, await: func(session string, seen int64) (int64, error) {
			m, err := direct.Master(session)
			if err != nil {
				return 0, err
			}
			return awaitWork(m, seen), nil
		}},
	}
	stats := WorkerStats{MinBuffered: 2, BusyFrac: 0.5, Recovery: dwrf.Recovery{StorageRetries: 3, HedgedReads: 4}, SplitsReleased: 1}
	// A heartbeat answers nothing; what it delivered is what its reader
	// sees: the scaler's PolicyStats, the master's Recovery.
	type fleetBeat struct {
		Directive FleetDirective
		Policy    []WorkerStats
	}
	fleetHeartbeat := func(s *controlSide) (any, error) {
		d, err := s.cp.FleetHeartbeat("fw", stats)
		return fleetBeat{d, s.svc.PolicyStats()}, err
	}
	type sessionBeat struct {
		Recovery dwrf.Recovery
		Released int64
	}
	heartbeat := func(s *controlSide) (any, error) {
		if err := s.m.Heartbeat("w", stats); err != nil {
			return nil, err
		}
		m, err := s.svc.Master("s")
		if err != nil {
			return nil, err
		}
		var b sessionBeat
		b.Recovery, b.Released = m.Recovery()
		return b, nil
	}
	type lease struct {
		Split        warehouse.Split
		ID           int
		OK, Draining bool
	}
	nextSplit := func(s *controlSide) (any, error) {
		var l lease
		var err error
		l.Split, l.ID, l.OK, l.Draining, err = s.m.NextSplit("w")
		s.leased = append(s.leased, l.ID)
		return l, err
	}

	type outcome int
	const (
		answers outcome = iota
		fails
		disowned
	)
	steps := []struct {
		name string
		want outcome
		run  func(s *controlSide) (any, error)
	}{
		{"ListSessions/empty", answers, func(s *controlSide) (any, error) { return s.cp.ListSessions() }},
		{"CreateSession", answers, func(s *controlSide) (any, error) { return nil, s.cp.CreateSession("s", spec) }},
		{"CreateSession/duplicate", fails, func(s *controlSide) (any, error) { return nil, s.cp.CreateSession("s", spec) }},
		{"CreateSession/bad weight", fails, func(s *controlSide) (any, error) {
			bad := spec
			bad.Weight = -1
			return nil, s.cp.CreateSession("t", bad)
		}},
		{"RegisterFleetWorker", answers, func(s *controlSide) (any, error) { return nil, s.cp.RegisterFleetWorker("fw", "fw-ep") }},
		{"FleetHeartbeat", answers, fleetHeartbeat},
		{"FleetHeartbeat/unknown worker", fails, func(s *controlSide) (any, error) { return s.cp.FleetHeartbeat("nobody", stats) }},
		{"SessionMaster", answers, func(s *controlSide) (any, error) {
			m, err := s.cp.SessionMaster("s")
			s.m = m
			return nil, err
		}},
		{"RegisterWorker", answers, func(s *controlSide) (any, error) { return s.m.RegisterWorker("w", "w-ep") }},
		{"ListWorkers", answers, func(s *controlSide) (any, error) { return s.m.ListWorkers() }},
		{"NextSplit", answers, nextSplit},
		{"NextSplit/again", answers, nextSplit},
		{"CompleteSplit", answers, func(s *controlSide) (any, error) { return nil, s.m.CompleteSplit("w", s.leased[0]) }},
		{"CompleteSplit/duplicate", answers, func(s *controlSide) (any, error) { return nil, s.m.CompleteSplit("w", s.leased[0]) }},
		{"CompleteSplit/out of range", fails, func(s *controlSide) (any, error) { return nil, s.m.CompleteSplit("w", -1) }},
		{"ReleaseSplit", answers, func(s *controlSide) (any, error) { return s.m.ReleaseSplit("w", s.leased[1], "storage") }},
		{"Heartbeat", answers, heartbeat},
		{"Heartbeat/unregistered worker", disowned, func(s *controlSide) (any, error) { return nil, s.m.Heartbeat("nobody", stats) }},
		{"Done", answers, func(s *controlSide) (any, error) { return s.m.Done() }},
		{"AwaitWork/stale token", answers, func(s *controlSide) (any, error) { return s.await("s", -1) }},
		{"AwaitWork/unknown session", disowned, func(s *controlSide) (any, error) { return s.await("nope", -1) }},
		{"NextSplit/unknown session", disowned, func(s *controlSide) (any, error) {
			// In process an unknown session fails here, over TCP at the
			// master's first call.
			m, err := s.cp.SessionMaster("nope")
			if err != nil {
				return nil, err
			}
			_, _, _, _, err = m.NextSplit("w")
			return nil, err
		}},
		{"NextSplit/draining", answers, func(s *controlSide) (any, error) {
			m, err := s.svc.Master("s")
			if err != nil {
				return nil, err
			}
			if err := m.Drain("w"); err != nil {
				return nil, err
			}
			return nextSplit(s)
		}},
		{"ListWorkers/draining", answers, func(s *controlSide) (any, error) { return s.m.ListWorkers() }},
		{"ListSessions", answers, func(s *controlSide) (any, error) { return s.cp.ListSessions() }},
		{"DeregisterWorker", answers, func(s *controlSide) (any, error) { return nil, s.m.DeregisterWorker("w") }},
		{"DeregisterFleetWorker", answers, func(s *controlSide) (any, error) { return nil, s.cp.DeregisterFleetWorker("fw") }},
		{"CloseSession", answers, func(s *controlSide) (any, error) { return nil, s.cp.CloseSession("s") }},
		{"CloseSession/unknown", disowned, func(s *controlSide) (any, error) { return nil, s.cp.CloseSession("s") }},
		{"Heartbeat/closed session", disowned, func(s *controlSide) (any, error) { return nil, s.m.Heartbeat("w", stats) }},
		{"ListSessions/closed", answers, func(s *controlSide) (any, error) { return s.cp.ListSessions() }},
	}
	for _, step := range steps {
		remote, remoteErr := step.run(sides[0])
		local, localErr := step.run(sides[1])
		switch step.want {
		case answers:
			if remoteErr != nil || localErr != nil {
				t.Fatalf("%s: over TCP %v, in process %v; want answers", step.name, remoteErr, localErr)
			}
			if remote != nil || local != nil {
				if got, want := gobNormal(t, remote), gobNormal(t, local); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: over TCP %+v, in process %+v", step.name, got, want)
				}
			}
		case fails:
			if remoteErr == nil || localErr == nil || remoteErr.Error() != localErr.Error() {
				t.Fatalf("%s: over TCP %v, in process %v; want the same error", step.name, remoteErr, localErr)
			}
		case disowned:
			if !isDisownedErr(remoteErr) || !isDisownedErr(localErr) {
				t.Fatalf("%s: over TCP %v, in process %v; want disownment on both", step.name, remoteErr, localErr)
			}
		}
	}

	// An op outside the table is an error that names it, over TCP and
	// at the handler.
	for _, op := range []ctlOp{0, opAwaitWork + 1, math.MaxUint8} {
		_, remoteErr := call(rs.client, ControlCall{Op: op})
		localErr := (&control{svc: direct}).Call(&ControlCall{Op: op}, new(ControlReply))
		if remoteErr == nil || localErr == nil || remoteErr.Error() != localErr.Error() {
			t.Fatalf("op %d: over TCP %v, at the handler %v; want the same error", op, remoteErr, localErr)
		}
	}
}

// TestServeServiceStopClosesConnections: after stop, a connection
// dialed before it answers nothing — the next call errors — and a
// RemoteMaster's long-poll ends on its own, without Close.
func TestServeServiceStopClosesConnections(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	if err := svc.CreateSession("s", spec); err != nil {
		t.Fatal(err)
	}
	ln, stop, err := ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rs, err := DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.ListSessions(); err != nil {
		t.Fatal(err)
	}
	sm, err := rs.SessionMaster("s")
	if err != nil {
		t.Fatal(err)
	}
	remote := sm.(*RemoteMaster)
	defer remote.Close()
	session, _ := remote.WorkChanged()
	select {
	case <-session: // the long-poll's first reply learns the token
	case <-time.After(awaitWorkCap / 2):
		t.Fatal("the long-poll never answered")
	}

	stop()
	if sessions, err := rs.ListSessions(); err == nil {
		t.Fatalf("a connection dialed before stop still answers after it: %v", sessions)
	}
	polled := make(chan struct{})
	go func() {
		remote.polling.Wait()
		close(polled)
	}()
	select {
	case <-polled:
	case <-time.After(2 * awaitWorkCap):
		t.Fatal("the long-poll outlived the stopped control plane")
	}
	if _, err := call(rs.client, ControlCall{Op: opListSessions}); !errors.Is(err, rpc.ErrShutdown) {
		t.Fatalf("call on a stopped control plane = %v, want rpc.ErrShutdown", err)
	}
}

// FuzzControlCall feeds arbitrary calls to the control handler over a
// small Service holding session "s", its worker "w" with one split
// leased, and fleet worker "w": every input must return, and none may
// panic. AwaitWork inputs carry a stale (negative) token, so each
// answers at once instead of holding for awaitWorkCap.
func FuzzControlCall(f *testing.F) {
	wh, spec := buildFixture(f, 64, 16)
	for op := ctlOp(1); op <= opAwaitWork; op++ {
		f.Add(uint8(op), "s", "w", 0, "storage", int64(-1), 1.0)
	}
	f.Add(uint8(0), "", "", -1, "", int64(0), 0.0)
	f.Add(uint8(opAwaitWork+1), "s", "w", 1<<40, "", int64(math.MaxInt64), math.NaN())
	f.Add(uint8(opCreateSession), "t", "", 0, "", int64(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, op uint8, session, worker string, splitID int, reason string, seen int64, weight float64) {
		svc := NewService(wh)
		if err := svc.CreateSession("s", spec); err != nil {
			t.Fatal(err)
		}
		m, err := svc.Master("s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterWorker("w", "w-ep"); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _, err := m.NextSplit("w"); err != nil || !ok {
			t.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		if err := svc.RegisterFleetWorker("w", "w-ep"); err != nil {
			t.Fatal(err)
		}
		if ctlOp(op) == opAwaitWork && seen >= 0 {
			seen = -1 - seen // a work token is never negative
		}
		call := ControlCall{Op: ctlOp(op), Session: session, Worker: worker, SplitID: splitID, Reason: reason, Seen: seen, Spec: spec}
		call.Spec.Weight = weight
		call.Stats.BusyFrac = weight
		(&control{svc: svc}).Call(&call, new(ControlReply))
	})
}
