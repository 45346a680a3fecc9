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

// MasterService is the RPC wrapper around the per-session control
// plane: every method is scoped to one of the Service's sessions by its
// args' SessionID.
type MasterService struct {
	svc *Service
}

// master resolves one session's control plane.
func (s *MasterService) master(sessionID string) (*Master, error) {
	return s.svc.Master(sessionID)
}

// RegisterArgs identifies the calling worker, its data-plane address,
// and the session it joins.
type RegisterArgs struct {
	WorkerID  string
	Endpoint  string
	SessionID string
}

// RegisterReply carries the session spec.
type RegisterReply struct{ Spec SessionSpec }

// Register handles worker registration.
func (s *MasterService) Register(args *RegisterArgs, reply *RegisterReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	spec, err := m.RegisterWorker(args.WorkerID, args.Endpoint)
	if err != nil {
		return err
	}
	reply.Spec = spec
	return nil
}

// DeregisterArgs identifies the departing worker.
type DeregisterArgs struct {
	WorkerID  string
	SessionID string
}

// Deregister removes a drained worker from the session's membership.
func (s *MasterService) Deregister(args *DeregisterArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.DeregisterWorker(args.WorkerID)
}

// NextSplitArgs identifies the calling worker.
type NextSplitArgs struct {
	WorkerID  string
	SessionID string
}

// NextSplitReply carries one leased split, or the drain signal.
type NextSplitReply struct {
	Split    warehouse.Split
	SplitID  int
	OK       bool
	Draining bool
}

// NextSplit leases a split.
func (s *MasterService) NextSplit(args *NextSplitArgs, reply *NextSplitReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	split, id, ok, draining, err := m.NextSplit(args.WorkerID)
	if err != nil {
		return err
	}
	reply.Split, reply.SplitID, reply.OK, reply.Draining = split, id, ok, draining
	return nil
}

// ListWorkersArgs scopes a membership resolution to one session.
type ListWorkersArgs struct {
	SessionID string
}

// ListWorkersReply carries the session's resolved worker membership.
type ListWorkersReply struct{ Workers []WorkerEndpoint }

// ListWorkers resolves current worker membership for clients.
func (s *MasterService) ListWorkers(args *ListWorkersArgs, reply *ListWorkersReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	workers, err := m.ListWorkers()
	if err != nil {
		return err
	}
	reply.Workers = workers
	return nil
}

// ReleaseArgs returns a leased split after a retryable storage failure.
type ReleaseArgs struct {
	WorkerID  string
	SplitID   int
	Reason    string
	SessionID string
}

// ReleaseReply reports whether the split was requeued (false: its
// poison budget is exhausted and the session is failing).
type ReleaseReply struct{ Requeued bool }

// Release requeues a split a worker could not read.
func (s *MasterService) Release(args *ReleaseArgs, reply *ReleaseReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	requeued, err := m.ReleaseSplit(args.WorkerID, args.SplitID, args.Reason)
	reply.Requeued = requeued
	return err
}

// CompleteArgs acknowledges a split.
type CompleteArgs struct {
	WorkerID  string
	SplitID   int
	SessionID string
}

// Complete acknowledges a finished split.
func (s *MasterService) Complete(args *CompleteArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.CompleteSplit(args.WorkerID, args.SplitID)
}

// HeartbeatArgs carries a worker utilization snapshot.
type HeartbeatArgs struct {
	WorkerID  string
	Stats     WorkerStats
	SessionID string
}

// Heartbeat records worker liveness.
func (s *MasterService) Heartbeat(args *HeartbeatArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.Heartbeat(args.WorkerID, args.Stats)
}

// DoneArgs scopes a completion check to one session.
type DoneArgs struct {
	SessionID string
}

// Done reports session completion.
func (s *MasterService) Done(args *DoneArgs, reply *bool) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	done, err := m.Done()
	if err != nil {
		return err
	}
	*reply = done
	return nil
}

// awaitWorkCap bounds how long one AwaitWork long-poll is held at the
// server, so a handler never outlives its session's last event by more
// than this and a silently dead peer costs one parked goroutine for a
// second, not forever.
const awaitWorkCap = time.Second

// AwaitWorkArgs is one long-poll for WorkChanged over RPC: the session,
// and the work token the caller last saw (-1: none yet).
type AwaitWorkArgs struct {
	SessionID string
	Seen      int64
}

// AwaitWork is the remote half of MasterAPI.WorkChanged. It answers at
// once when the master has moved past the token the caller last saw —
// which is what makes a change that lands between two polls impossible
// to miss — and otherwise when either WorkChanged channel closes or
// awaitWorkCap passes, replying with the token now current.
func (s *MasterService) AwaitWork(args *AwaitWorkArgs, token *int64) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	// Channels before the token: a change after this line closes one of
	// them, a change before it shows in the token.
	session, table := m.WorkChanged()
	if *token = m.workToken(); *token != args.Seen {
		return nil
	}
	held := time.NewTimer(awaitWorkCap)
	defer held.Stop()
	select {
	case <-session:
	case <-table:
	case <-held.C:
	}
	*token = m.workToken()
	return nil
}

// ServiceRPC is the RPC wrapper around the multi-tenant registry and
// fleet surface of a Service.
type ServiceRPC struct {
	svc *Service
}

// CreateSessionArgs registers a new tenant session.
type CreateSessionArgs struct {
	ID   string
	Spec SessionSpec
}

// Create registers a new tenant session.
func (s *ServiceRPC) Create(args *CreateSessionArgs, reply *struct{}) error {
	return s.svc.CreateSession(args.ID, args.Spec)
}

// CloseSessionArgs removes a tenant session.
type CloseSessionArgs struct {
	ID string
}

// Close removes a tenant session from the registry.
func (s *ServiceRPC) Close(args *CloseSessionArgs, reply *struct{}) error {
	return s.svc.CloseSession(args.ID)
}

// ListSessionsReply carries the session registry.
type ListSessionsReply struct {
	Sessions []SessionInfo
}

// List reports the session registry.
func (s *ServiceRPC) List(args *struct{}, reply *ListSessionsReply) error {
	sessions, err := s.svc.ListSessions()
	if err != nil {
		return err
	}
	reply.Sessions = sessions
	return nil
}

// FleetRegisterArgs announces a fleet worker.
type FleetRegisterArgs struct {
	WorkerID string
	Endpoint string
}

// RegisterFleet handles fleet worker registration.
func (s *ServiceRPC) RegisterFleet(args *FleetRegisterArgs, reply *struct{}) error {
	return s.svc.RegisterFleetWorker(args.WorkerID, args.Endpoint)
}

// FleetHeartbeatArgs carries a fleet worker's aggregate snapshot.
type FleetHeartbeatArgs struct {
	WorkerID string
	Stats    WorkerStats
}

// FleetHeartbeatReply carries the worker's assignment directive.
type FleetHeartbeatReply struct {
	Directive FleetDirective
}

// FleetHeartbeat records fleet liveness and returns assignments.
func (s *ServiceRPC) FleetHeartbeat(args *FleetHeartbeatArgs, reply *FleetHeartbeatReply) error {
	d, err := s.svc.FleetHeartbeat(args.WorkerID, args.Stats)
	if err != nil {
		return err
	}
	reply.Directive = d
	return nil
}

// FleetDeregisterArgs identifies the departing fleet worker.
type FleetDeregisterArgs struct {
	WorkerID string
}

// DeregisterFleet removes a drained fleet worker.
func (s *ServiceRPC) DeregisterFleet(args *FleetDeregisterArgs, reply *struct{}) error {
	return s.svc.DeregisterFleetWorker(args.WorkerID)
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
// DialService) and a stop function.
func ServeService(svc *Service, addr string) (net.Listener, func(), error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &MasterService{svc: svc}); err != nil {
		return nil, nil, err
	}
	if err := srv.RegisterName("Service", &ServiceRPC{svc: svc}); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go acceptLoop(ln, done, func(conn net.Conn) {
		go srv.ServeConn(conn)
	})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			ln.Close()
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

// RegisterWorker implements MasterAPI.
func (r *RemoteMaster) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	var reply RegisterReply
	if err := r.client.Call("Master.Register", &RegisterArgs{WorkerID: workerID, Endpoint: endpoint, SessionID: r.session}, &reply); err != nil {
		return SessionSpec{}, err
	}
	return reply.Spec, nil
}

// DeregisterWorker implements MasterAPI.
func (r *RemoteMaster) DeregisterWorker(workerID string) error {
	return r.client.Call("Master.Deregister", &DeregisterArgs{WorkerID: workerID, SessionID: r.session}, &struct{}{})
}

// NextSplit implements MasterAPI.
func (r *RemoteMaster) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	var reply NextSplitReply
	if err := r.client.Call("Master.NextSplit", &NextSplitArgs{WorkerID: workerID, SessionID: r.session}, &reply); err != nil {
		return warehouse.Split{}, 0, false, false, err
	}
	return reply.Split, reply.SplitID, reply.OK, reply.Draining, nil
}

// ListWorkers implements MasterAPI.
func (r *RemoteMaster) ListWorkers() ([]WorkerEndpoint, error) {
	var reply ListWorkersReply
	if err := r.client.Call("Master.ListWorkers", &ListWorkersArgs{SessionID: r.session}, &reply); err != nil {
		return nil, err
	}
	return reply.Workers, nil
}

// CompleteSplit implements MasterAPI.
func (r *RemoteMaster) CompleteSplit(workerID string, splitID int) error {
	return r.client.Call("Master.Complete", &CompleteArgs{WorkerID: workerID, SplitID: splitID, SessionID: r.session}, &struct{}{})
}

// ReleaseSplit implements MasterAPI.
func (r *RemoteMaster) ReleaseSplit(workerID string, splitID int, reason string) (bool, error) {
	var reply ReleaseReply
	if err := r.client.Call("Master.Release", &ReleaseArgs{WorkerID: workerID, SplitID: splitID, Reason: reason, SessionID: r.session}, &reply); err != nil {
		return false, err
	}
	return reply.Requeued, nil
}

// Heartbeat implements MasterAPI.
func (r *RemoteMaster) Heartbeat(workerID string, stats WorkerStats) error {
	return r.client.Call("Master.Heartbeat", &HeartbeatArgs{WorkerID: workerID, Stats: stats, SessionID: r.session}, &struct{}{})
}

// Done implements MasterAPI.
func (r *RemoteMaster) Done() (bool, error) {
	var done bool
	err := r.client.Call("Master.Done", &DoneArgs{SessionID: r.session}, &done)
	return done, err
}

// WorkChanged implements MasterAPI. Both of the master's wake-ups
// arrive through one shared long-poll (MasterService.AwaitWork), so the
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
		var token int64
		call := r.client.Go("Master.AwaitWork", &AwaitWorkArgs{SessionID: r.session, Seen: seen}, &token, nil)
		select {
		case <-stop:
			return
		case <-call.Done:
		}
		switch {
		case call.Error == nil && token == seen:
			continue // the server's cap passed with nothing to announce
		case call.Error == nil:
			seen = token
		case errors.Is(call.Error, rpc.ErrShutdown):
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
	return r.client.Call("Service.Create", &CreateSessionArgs{ID: id, Spec: spec}, &struct{}{})
}

// CloseSession removes a tenant session from the served Service
// (Service.CloseSession).
func (r *RemoteService) CloseSession(id string) error {
	return r.client.Call("Service.Close", &CloseSessionArgs{ID: id}, &struct{}{})
}

// ListSessions reports the served Service's sessions
// (Service.ListSessions).
func (r *RemoteService) ListSessions() ([]SessionInfo, error) {
	var reply ListSessionsReply
	if err := r.client.Call("Service.List", &struct{}{}, &reply); err != nil {
		return nil, err
	}
	return reply.Sessions, nil
}

// RegisterFleetWorker implements FleetControl.
func (r *RemoteService) RegisterFleetWorker(workerID, endpoint string) error {
	return r.client.Call("Service.RegisterFleet", &FleetRegisterArgs{WorkerID: workerID, Endpoint: endpoint}, &struct{}{})
}

// FleetHeartbeat implements FleetControl.
func (r *RemoteService) FleetHeartbeat(workerID string, stats WorkerStats) (FleetDirective, error) {
	var reply FleetHeartbeatReply
	if err := r.client.Call("Service.FleetHeartbeat", &FleetHeartbeatArgs{WorkerID: workerID, Stats: stats}, &reply); err != nil {
		return FleetDirective{}, err
	}
	return reply.Directive, nil
}

// DeregisterFleetWorker implements FleetControl.
func (r *RemoteService) DeregisterFleetWorker(workerID string) error {
	return r.client.Call("Service.DeregisterFleet", &FleetDeregisterArgs{WorkerID: workerID}, &struct{}{})
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
	return ServeBatchSource(worker, addr)
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
