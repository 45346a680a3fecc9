package dpp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"

	"dsi/internal/warehouse"
)

// This file provides the TCP control plane: the same Master/Service
// logic exposed over net/rpc with gob encoding, standing in for the
// paper's Thrift RPC, plus the entry points that put a Worker's buffer
// on a listener (the data plane itself is dataplane.go). The in-process
// transport remains the default for simulations; cmd/dppd uses this one.
//
// Every control-plane call crosses the wire as one ControlCall and
// comes back as one ControlReply, through the one method served as
// controlMethod.

// ctlOp names one control-plane operation: the six Service ops, then
// the nine session-scoped MasterAPI ops.
type ctlOp uint8

const (
	_ ctlOp = iota // the zero op is no operation
	opCreateSession
	opCloseSession
	opListSessions
	opRegisterFleet
	opFleetHeartbeat
	opDeregisterFleet
	opRegister // the first op scoped to ControlCall.Session's master
	opDeregister
	opNextSplit
	opListWorkers
	opRelease
	opComplete
	opHeartbeat
	opDone
	opAwaitWork // the last op
)

// controlMethod is the one net/rpc method ServeService serves.
const controlMethod = "Control.Call"

// ControlCall is one control-plane request: Op, plus the arguments that
// op reads. The rest stay zero, and gob sends no zero field.
type ControlCall struct {
	Op       ctlOp
	Session  string // the session a master op is scoped to, or the one created or closed
	Worker   string
	Endpoint string
	SplitID  int
	Reason   string
	Stats    WorkerStats
	Spec     SessionSpec
	Seen     int64 // AwaitWork: the work token the caller last saw (-1: none yet)
}

// ControlReply is one control-plane answer: the fields its call's op
// fills.
type ControlReply struct {
	Spec      SessionSpec
	Sessions  []SessionInfo
	Directive FleetDirective
	Workers   []WorkerEndpoint
	Split     warehouse.Split
	SplitID   int
	OK        bool
	Draining  bool
	Requeued  bool
	Done      bool
	Token     int64
}

// control answers every ControlCall against one Service.
type control struct{ svc *Service }

// Call runs one control-plane operation. A master op resolves its
// session's Master first, so an unknown session fails every one alike.
func (c *control) Call(call *ControlCall, reply *ControlReply) (err error) {
	if call.Op == 0 || call.Op > opAwaitWork {
		return fmt.Errorf("dpp: unknown control op %d", call.Op)
	}
	var m *Master
	if call.Op >= opRegister {
		if m, err = c.svc.Master(call.Session); err != nil {
			return err
		}
	}
	switch call.Op {
	case opCreateSession:
		err = c.svc.CreateSession(call.Session, call.Spec)
	case opCloseSession:
		err = c.svc.CloseSession(call.Session)
	case opListSessions:
		reply.Sessions, err = c.svc.ListSessions()
	case opRegisterFleet:
		err = c.svc.RegisterFleetWorker(call.Worker, call.Endpoint)
	case opFleetHeartbeat:
		reply.Directive, err = c.svc.FleetHeartbeat(call.Worker, call.Stats)
	case opDeregisterFleet:
		err = c.svc.DeregisterFleetWorker(call.Worker)
	case opRegister:
		reply.Spec, err = m.RegisterWorker(call.Worker, call.Endpoint)
	case opDeregister:
		err = m.DeregisterWorker(call.Worker)
	case opNextSplit:
		reply.Split, reply.SplitID, reply.OK, reply.Draining, err = m.NextSplit(call.Worker)
	case opListWorkers:
		reply.Workers, err = m.ListWorkers()
	case opRelease:
		reply.Requeued, err = m.ReleaseSplit(call.Worker, call.SplitID, call.Reason)
	case opComplete:
		err = m.CompleteSplit(call.Worker, call.SplitID)
	case opHeartbeat:
		err = m.Heartbeat(call.Worker, call.Stats)
	case opDone:
		reply.Done, err = m.Done()
	case opAwaitWork:
		reply.Token = awaitWork(m, call.Seen)
	}
	return err
}

// awaitWorkCap bounds how long one AwaitWork long-poll is held at the
// server, so a handler never outlives its session's last event by more
// than this and a silently dead peer costs one parked goroutine for a
// second, not forever.
const awaitWorkCap = time.Second

// awaitWork is the remote half of MasterAPI.WorkChanged. It answers at
// once when the master has moved past the token the caller last saw —
// which is what makes a change that lands between two polls impossible
// to miss — and otherwise when either WorkChanged channel closes or
// awaitWorkCap passes, with the token now current.
func awaitWork(m *Master, seen int64) int64 {
	// Channels before the token: a change after this line closes one of
	// them, a change before it shows in the token.
	session, table := m.WorkChanged()
	if token := m.workToken(); token != seen {
		return token
	}
	held := time.NewTimer(awaitWorkCap)
	defer held.Stop()
	select {
	case <-session:
	case <-table:
	case <-held.C:
	}
	return m.workToken()
}

// acceptBackoff bounds the retry delay after a transient Accept error.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = 100 * time.Millisecond
)

// acceptLoop accepts connections until done closes (or the listener is
// torn down), handing each to handle. Transient Accept errors — a
// momentarily exhausted fd table, a connection reset during the
// handshake — back off exponentially with jitter instead of
// hot-spinning a core on the accept syscall; a successful accept resets
// the backoff. The jitter decorrelates the retry times of the many
// listeners one process hosts (master, service, per-worker data plane),
// so an fd-exhaustion event doesn't turn into synchronized retry waves.
func acceptLoop(ln net.Listener, done <-chan struct{}, handle func(net.Conn)) {
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-done:
				return
			case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))):
			}
			backoff = min(2*backoff, acceptBackoffMax)
			continue
		}
		backoff = acceptBackoffMin
		handle(conn)
	}
}

// rpcDialTimeout bounds every dial, control and data plane: a
// black-holed endpoint (SYN swallowed by a dead VIP) fails the dial
// instead of wedging the caller on the kernel's connect timeout.
const rpcDialTimeout = 5 * time.Second

// dialRPC is rpc.Dial with a connect timeout.
func dialRPC(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, rpcDialTimeout)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// ServeService listens on addr and serves the control plane over
// net/rpc: the session-scoped Master surface plus the Service registry
// and fleet surface. It returns the bound listener (use its Addr for
// DialService) and a stop function, which also closes every served
// connection, so no client keeps a control plane that has stopped.
func ServeService(svc *Service, addr string) (net.Listener, func(), error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Control", &control{svc: svc}); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{}) // nil once stopped
	done := make(chan struct{})
	go acceptLoop(ln, done, func(conn net.Conn) {
		mu.Lock()
		defer mu.Unlock()
		if conns == nil {
			conn.Close()
			return
		}
		conns[conn] = struct{}{}
		go func() {
			srv.ServeConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			ln.Close()
			mu.Lock()
			defer mu.Unlock()
			for conn := range conns {
				conn.Close()
			}
			conns = nil
		})
	}
	return ln, stop, nil
}

// RemoteMaster is one session's MasterAPI over a RemoteService's RPC
// connection (RemoteService.SessionMaster). A RemoteMaster whose
// WorkChanged was called owns one long-poll goroutine; Close ends it.
type RemoteMaster struct {
	client  *rpc.Client
	session string

	mu      sync.Mutex
	changed chan struct{} // WorkChanged's channel; closed and replaced by awaitLoop
	stop    chan struct{} // non-nil once awaitLoop runs; closed by Close
	closed  bool
	polling sync.WaitGroup
}

// call sends one control call over client and waits for its reply.
func call(client *rpc.Client, c ControlCall) (ControlReply, error) {
	var reply ControlReply
	err := client.Call(controlMethod, &c, &reply)
	return reply, err
}

// RegisterWorker implements MasterAPI.
func (r *RemoteMaster) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	reply, err := call(r.client, ControlCall{Op: opRegister, Session: r.session, Worker: workerID, Endpoint: endpoint})
	return reply.Spec, err
}

// DeregisterWorker implements MasterAPI.
func (r *RemoteMaster) DeregisterWorker(workerID string) error {
	_, err := call(r.client, ControlCall{Op: opDeregister, Session: r.session, Worker: workerID})
	return err
}

// NextSplit implements MasterAPI.
func (r *RemoteMaster) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	reply, err := call(r.client, ControlCall{Op: opNextSplit, Session: r.session, Worker: workerID})
	return reply.Split, reply.SplitID, reply.OK, reply.Draining, err
}

// ListWorkers implements MasterAPI.
func (r *RemoteMaster) ListWorkers() ([]WorkerEndpoint, error) {
	reply, err := call(r.client, ControlCall{Op: opListWorkers, Session: r.session})
	return reply.Workers, err
}

// CompleteSplit implements MasterAPI.
func (r *RemoteMaster) CompleteSplit(workerID string, splitID int) error {
	_, err := call(r.client, ControlCall{Op: opComplete, Session: r.session, Worker: workerID, SplitID: splitID})
	return err
}

// ReleaseSplit implements MasterAPI.
func (r *RemoteMaster) ReleaseSplit(workerID string, splitID int, reason string) (bool, error) {
	reply, err := call(r.client, ControlCall{Op: opRelease, Session: r.session, Worker: workerID, SplitID: splitID, Reason: reason})
	return reply.Requeued, err
}

// Heartbeat implements MasterAPI.
func (r *RemoteMaster) Heartbeat(workerID string, stats WorkerStats) error {
	_, err := call(r.client, ControlCall{Op: opHeartbeat, Session: r.session, Worker: workerID, Stats: stats})
	return err
}

// Done implements MasterAPI.
func (r *RemoteMaster) Done() (bool, error) {
	reply, err := call(r.client, ControlCall{Op: opDone, Session: r.session})
	return reply.Done, err
}

// WorkChanged implements MasterAPI. Both of the master's wake-ups
// arrive through one shared long-poll (awaitWork), so the
// session channel stands for either and table is nil. The first call
// starts the long-poll; its first reply only learns the master's token
// and therefore wakes the waiters once for nothing.
func (r *RemoteMaster) WorkChanged() (session, table <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.changed == nil {
		r.changed = make(chan struct{})
	}
	if r.stop == nil && !r.closed {
		r.stop = make(chan struct{})
		r.polling.Add(1)
		go r.awaitLoop(r.stop)
	}
	return r.changed, nil
}

// wake closes the channel waiters hold, if any took one.
func (r *RemoteMaster) wake() {
	r.mu.Lock()
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
	r.mu.Unlock()
}

// awaitLoop keeps one AwaitWork long-poll outstanding and wakes the
// waiters each time it answers with a token that moved. An error wakes
// them too — whatever broke the poll breaks their NextSplit, which is
// where a worker's error handling lives — but only after a pause, so a
// dead or disowning master is asked again at acceptLoop's capped rate
// rather than hot-looped. The loop ends with Close, or with the
// connection (net/rpc does not reconnect).
func (r *RemoteMaster) awaitLoop(stop <-chan struct{}) {
	defer r.polling.Done()
	defer r.wake() // never leave a waiter on a channel nothing will close
	seen := int64(-1)
	for {
		var reply ControlReply
		poll := r.client.Go(controlMethod, &ControlCall{Op: opAwaitWork, Session: r.session, Seen: seen}, &reply, nil)
		select {
		case <-stop:
			return
		case <-poll.Done:
		}
		switch {
		case poll.Error == nil && reply.Token == seen:
			continue // the server's cap passed with nothing to announce
		case poll.Error == nil:
			seen = reply.Token
		case errors.Is(poll.Error, rpc.ErrShutdown):
			return
		default:
			seen = -1
			pause := time.NewTimer(acceptBackoffMax)
			select {
			case <-stop:
				pause.Stop()
				return
			case <-pause.C:
			}
		}
		r.wake()
	}
}

// Close ends the long-poll goroutine, if WorkChanged ever started one,
// and returns once it has exited. The RPC connection is the
// RemoteService's and stays open.
func (r *RemoteMaster) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		if r.stop != nil {
			close(r.stop)
		}
	}
	r.mu.Unlock()
	r.polling.Wait()
	return nil
}

var _ MasterAPI = (*RemoteMaster)(nil)

// RemoteService is the client side of a served control plane: the
// session registry (create, close, list) plus the fleet surface (FleetControl),
// all over one connection.
type RemoteService struct {
	client *rpc.Client
}

// DialService connects to a control plane served by ServeService.
func DialService(addr string) (*RemoteService, error) {
	client, err := dialRPC(addr)
	if err != nil {
		return nil, fmt.Errorf("dpp: dial service %s: %w", addr, err)
	}
	return &RemoteService{client: client}, nil
}

// Close releases the connection (shared by SessionMaster derivations).
func (r *RemoteService) Close() error { return r.client.Close() }

// CreateSession registers a tenant session at the served Service
// (Service.CreateSession).
func (r *RemoteService) CreateSession(id string, spec SessionSpec) error {
	_, err := call(r.client, ControlCall{Op: opCreateSession, Session: id, Spec: spec})
	return err
}

// CloseSession removes a tenant session from the served Service
// (Service.CloseSession).
func (r *RemoteService) CloseSession(id string) error {
	_, err := call(r.client, ControlCall{Op: opCloseSession, Session: id})
	return err
}

// ListSessions reports the served Service's sessions
// (Service.ListSessions).
func (r *RemoteService) ListSessions() ([]SessionInfo, error) {
	reply, err := call(r.client, ControlCall{Op: opListSessions})
	return reply.Sessions, err
}

// RegisterFleetWorker implements FleetControl.
func (r *RemoteService) RegisterFleetWorker(workerID, endpoint string) error {
	_, err := call(r.client, ControlCall{Op: opRegisterFleet, Worker: workerID, Endpoint: endpoint})
	return err
}

// FleetHeartbeat implements FleetControl.
func (r *RemoteService) FleetHeartbeat(workerID string, stats WorkerStats) (FleetDirective, error) {
	reply, err := call(r.client, ControlCall{Op: opFleetHeartbeat, Worker: workerID, Stats: stats})
	return reply.Directive, err
}

// DeregisterFleetWorker implements FleetControl.
func (r *RemoteService) DeregisterFleetWorker(workerID string) error {
	_, err := call(r.client, ControlCall{Op: opDeregisterFleet, Worker: workerID})
	return err
}

// SessionMaster implements FleetControl: one session's control plane
// over the shared connection.
func (r *RemoteService) SessionMaster(sessionID string) (MasterAPI, error) {
	return &RemoteMaster{client: r.client, session: sessionID}, nil
}

var _ FleetControl = (*RemoteService)(nil)

// ServeWorker exposes a worker's buffer on addr over the framed data
// plane (dataplane.go) to streams that name no session
// (DialWorkerFramed) — a fixed pool over an in-process Master.
func ServeWorker(worker *Worker, addr string) (net.Listener, func(), error) {
	return serveFrames(worker, addr)
}

// advertiseAddr converts a bound listener address into a dialable
// endpoint: a wildcard bind ("-addr :7071" yields host "::") is not
// dialable by clients, so it is advertised as loopback — matching this
// offline module's single-host deployments. Multi-host runs must bind
// an explicitly addressable -addr.
func advertiseAddr(addr net.Addr) string {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		return addr.String()
	}
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", fmt.Sprint(tcp.Port))
	}
	return addr.String()
}
