package dpp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dsi/internal/warehouse"
)

// This file is the multi-tenant DPP control plane. The paper's DPP is a
// disaggregated *service*: one shared preprocessing fleet multiplexed
// across many simultaneous training jobs, with capacity assigned per
// job as load shifts (§3.2.1). The Master stays the per-session split
// ledger; the Service layers a session registry and a shared
// fleet-worker registry on top of it, and a single training job is a
// Service with one session:
//
//   - CreateSession/CloseSession/ListSessions manage tenants. Each
//     session owns a Master (split leases, per-session worker
//     membership, checkpoints) built from its SessionSpec; the spec's
//     Weight is the tenant's share of the fleet. RestoreSession is
//     CreateSession from a checkpoint: a replica service re-hosts the
//     sessions of a Checkpoint with their completed splits skipped.
//   - Fleet workers register once with the Service (RegisterFleetWorker,
//     which already assigns them their fair share of sessions) and
//     receive their assignment set — the sessions they should run
//     pipelines for — with every FleetHeartbeat. A FleetWorker hosts
//     one per-session pipeline (a Worker) per assignment, all serving
//     through one shared data-plane listener that demultiplexes by the
//     session ID in the stream hello.
//   - Rebalance divides the live fleet among active sessions by
//     weighted fair share (largest-remainder apportionment over
//     SessionSpec.Weight), revoking and granting assignments so every
//     tenant's worker allocation stays within one worker of its quota.
//     Revocation rides the existing drain protocol: the session's
//     master marks the worker draining, the pipeline delivers its
//     in-flight splits, serves out its buffer, and deregisters — so
//     reassignment never loses rows.
//
// The Orchestrator steers the Service directly: pool size tracks
// tenant-aggregated starvation/oversupply signals (PolicyStats), and
// every Step re-runs the fair-share rebalance.

// SessionInfo is one tenant's registry entry as reported by
// ListSessions.
type SessionInfo struct {
	ID     string
	Weight float64
	// Completed and Total are split progress.
	Completed, Total int
	Done             bool
	// Workers is the session's current worker membership (pipelines
	// registered with its master); Target is the fair-share assignment
	// target from the last Rebalance.
	Workers int
	Target  int
}

// FleetDirective is the Service's instruction to one fleet worker,
// returned with every fleet heartbeat.
type FleetDirective struct {
	// Sessions are the tenants the worker should run pipelines for.
	Sessions []string
	// Drain tells the worker to finish its pipelines, deregister, and
	// exit (the fleet controller shrinking the pool).
	Drain bool
}

// FleetControl is the control-plane surface fleet workers and tenant
// clients depend on. *Service implements it in process; RemoteService
// implements it over RPC.
type FleetControl interface {
	// RegisterFleetWorker announces a fleet worker and its shared
	// data-plane endpoint.
	RegisterFleetWorker(workerID, endpoint string) error
	// FleetHeartbeat reports liveness plus aggregate utilization and
	// returns the worker's current session assignments.
	FleetHeartbeat(workerID string, stats WorkerStats) (FleetDirective, error)
	// DeregisterFleetWorker removes a drained fleet worker.
	DeregisterFleetWorker(workerID string) error
	// SessionMaster resolves one session's control plane.
	SessionMaster(sessionID string) (MasterAPI, error)
}

// svcSession is one registered tenant.
type svcSession struct {
	id     string
	weight float64
	seq    int
	master *Master
	target int
}

// fleetMember is one registered fleet worker.
type fleetMember struct {
	id       string
	endpoint string
	seq      int
	lastSeen time.Time
	draining bool
	stats    WorkerStats
	assigned map[string]bool
}

// Service is the multi-tenant DPP control plane: a session registry
// over one shared elastic worker fleet.
type Service struct {
	wh *warehouse.Warehouse

	// FleetLeaseTimeout is how long a fleet worker may go without a
	// fleet heartbeat before ReapDead declares it dead (default 30s):
	// the one liveness rule, so a crashed fleet worker's split leases
	// are requeued at every session even though it never deregisters.
	FleetLeaseTimeout time.Duration

	// now is injectable for deterministic tests.
	now func() time.Time

	mu         sync.Mutex
	sessions   map[string]*svcSession
	sessionSeq int
	fleet      map[string]*fleetMember
	fleetSeq   int
}

// NewService builds an empty multi-tenant service over the warehouse
// sessions will read from.
func NewService(wh *warehouse.Warehouse) *Service {
	return &Service{
		wh:                wh,
		FleetLeaseTimeout: 30 * time.Second,
		now:               time.Now,
		sessions:          make(map[string]*svcSession),
		fleet:             make(map[string]*fleetMember),
	}
}

// CreateSession plans a new tenant session
// (enumerating its splits through a fresh Master) and registers it for
// fair-share capacity at the spec's Weight.
func (s *Service) CreateSession(id string, spec SessionSpec) error {
	return s.addSession(id, spec, func() (*Master, error) { return NewMaster(s.wh, spec) })
}

// RestoreSession registers a tenant session from one session's entry of
// a decoded Checkpoint (DecodeServiceCheckpoint) — the replica taking
// over (§3.2.1). Splits are re-enumerated from the warehouse and the
// checkpoint's completed ones are not leased again; an unbounded
// session restores its checkpoint as a prefix of whatever has sealed
// since (RestoreMaster).
func (s *Service) RestoreSession(id string, spec SessionSpec, checkpoint []byte) error {
	return s.addSession(id, spec, func() (*Master, error) { return RestoreMaster(s.wh, spec, checkpoint) })
}

// addSession validates the ID and weight, plans the session's Master,
// and enters it in the registry.
func (s *Service) addSession(id string, spec SessionSpec, plan func() (*Master, error)) error {
	if len(id) > maxSessionIDLen {
		return fmt.Errorf("dpp: session ID %q exceeds %d bytes", id, maxSessionIDLen)
	}
	// Reject malformed weights before they enter fair-share: NaN slips
	// past any <= comparison and poisons every largest-remainder sort
	// downstream; negative and infinite weights would likewise corrupt
	// the apportionment totals. Only an unset (zero) weight defaults.
	weight := spec.Weight
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("dpp: session %q has invalid weight %v", id, weight)
	}
	if weight == 0 {
		weight = 1
	}
	m, err := plan()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[id]; exists {
		return fmt.Errorf("dpp: session %q already exists", id)
	}
	s.sessions[id] = &svcSession{id: id, weight: weight, seq: s.sessionSeq, master: m}
	s.sessionSeq++
	return nil
}

// CloseSession removes a tenant: it leaves the registry,
// its assignments are revoked, and its master closes. Pipelines still
// running against the closed session — over RPC or holding a direct
// in-process Master pointer — have their next control call rejected,
// abandon their now-unconsumable buffers through the disown path, and
// retire, so an abrupt close never wedges a fleet member.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: unknown session %q", ErrDisowned, id)
	}
	delete(s.sessions, id)
	for _, fm := range s.fleet {
		delete(fm.assigned, id)
	}
	sess.master.Close()
	return nil
}

// ListSessions reports every registered session's progress and
// fair-share target, in registration order.
func (s *Service) ListSessions() ([]SessionInfo, error) {
	// Registry fields (weight, seq, the rebalance-written target) are
	// read under s.mu; the master calls below take the masters' own
	// locks and stay outside it.
	type entry struct {
		info   SessionInfo
		seq    int
		master *Master
	}
	s.mu.Lock()
	entries := make([]entry, 0, len(s.sessions))
	for _, sess := range s.sessions {
		entries = append(entries, entry{
			info:   SessionInfo{ID: sess.id, Weight: sess.weight, Target: sess.target},
			seq:    sess.seq,
			master: sess.master,
		})
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]SessionInfo, 0, len(entries))
	for _, e := range entries {
		e.info.Completed, e.info.Total = e.master.Progress()
		e.info.Done, _ = e.master.Done()
		e.info.Workers = e.master.WorkerCount()
		out = append(out, e.info)
	}
	return out, nil
}

// session resolves one tenant.
func (s *Service) session(id string) (*svcSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown session %q", ErrDisowned, id)
	}
	return sess, nil
}

// SessionMaster implements FleetControl: the session's Master is its
// control plane (a *Master is a MasterAPI).
func (s *Service) SessionMaster(sessionID string) (MasterAPI, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	return sess.master, nil
}

// Master returns one session's Master for direct in-process use
// (checkpoints, progress).
func (s *Service) Master(sessionID string) (*Master, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	return sess.master, nil
}

// RegisterFleetWorker implements FleetControl. The new member is
// assigned its fair share of sessions before the call returns, so the
// immediate first heartbeat of FleetWorker.Run already carries work
// instead of waiting out a control interval plus a heartbeat period.
func (s *Service) RegisterFleetWorker(workerID, endpoint string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm := s.fleet[workerID]
	if fm == nil {
		fm = &fleetMember{id: workerID, seq: s.fleetSeq, assigned: make(map[string]bool)}
		s.fleetSeq++
		s.fleet[workerID] = fm
	}
	fm.endpoint = endpoint
	fm.lastSeen = s.now()
	fm.draining = false
	s.rebalanceLocked()
	return nil
}

// FleetHeartbeat implements FleetControl: record liveness and aggregate
// stats, and return the worker's current assignment set.
func (s *Service) FleetHeartbeat(workerID string, stats WorkerStats) (FleetDirective, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.fleet[workerID]
	if !ok {
		return FleetDirective{}, fmt.Errorf("dpp: unregistered fleet worker %q", workerID)
	}
	fm.lastSeen = s.now()
	fm.stats = stats
	d := FleetDirective{Drain: fm.draining}
	for id := range fm.assigned {
		d.Sessions = append(d.Sessions, id)
	}
	sort.Strings(d.Sessions)
	return d, nil
}

// DeregisterFleetWorker implements FleetControl.
func (s *Service) DeregisterFleetWorker(workerID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.fleet[workerID]; !ok {
		return fmt.Errorf("dpp: unregistered fleet worker %q", workerID)
	}
	delete(s.fleet, workerID)
	return nil
}

// DrainFleetWorker marks a fleet worker for removal: its assignments
// are revoked (their session masters drain the pipelines gracefully)
// and its next heartbeat tells it to exit once the pipelines finish.
// The fleet controller's scale-down path.
func (s *Service) DrainFleetWorker(workerID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.fleet[workerID]
	if !ok {
		return fmt.Errorf("dpp: unregistered fleet worker %q", workerID)
	}
	fm.draining = true
	s.revokeAllLocked(fm)
	return nil
}

// revokeAllLocked drops every assignment of one member, draining its
// registered pipelines at their session masters.
func (s *Service) revokeAllLocked(fm *fleetMember) {
	for id := range fm.assigned {
		if sess := s.sessions[id]; sess != nil {
			_ = sess.master.Drain(fm.id)
		}
		delete(fm.assigned, id)
	}
}

// FleetWorkerCount reports live (non-draining) fleet members.
func (s *Service) FleetWorkerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, fm := range s.fleet {
		if !fm.draining {
			n++
		}
	}
	return n
}

// FleetAssignments reports every registered fleet worker's assignment
// set (draining members included, with a "*" suffix) — operator and
// test introspection.
func (s *Service) FleetAssignments() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]string, len(s.fleet))
	for id, fm := range s.fleet {
		key := id
		if fm.draining {
			key += "*"
		}
		sessions := make([]string, 0, len(fm.assigned))
		for sess := range fm.assigned {
			sessions = append(sessions, sess)
		}
		sort.Strings(sessions)
		out[key] = sessions
	}
	return out
}

// AssignmentCounts reports how many fleet workers are assigned to each
// session — the per-tenant allocation the fair-share tests assert on.
func (s *Service) AssignmentCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.sessions))
	for id := range s.sessions {
		out[id] = 0
	}
	for _, fm := range s.fleet {
		for id := range fm.assigned {
			out[id]++
		}
	}
	return out
}

// fairShare apportions n workers over the given weights by largest
// remainder: every quota is floored, and the leftover workers go to the
// largest fractional parts (ties to the earlier index). The result sums
// to n and every |share[i] - n*w[i]/Σw| < 1.
func fairShare(n int, weights []float64) []int {
	share := make([]int, len(weights))
	if n <= 0 || len(weights) == 0 {
		return share
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return share
	}
	type frac struct {
		idx int
		rem float64
	}
	assigned := 0
	fracs := make([]frac, 0, len(weights))
	for i, w := range weights {
		quota := float64(n) * w / total
		share[i] = int(quota)
		assigned += share[i]
		fracs = append(fracs, frac{idx: i, rem: quota - float64(share[i])})
	}
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for k := 0; k < n-assigned; k++ {
		share[fracs[k%len(fracs)].idx]++
	}
	return share
}

// Rebalance recomputes the fleet's session assignments by weighted fair
// share and applies the diff: over-quota sessions lose their newest
// assignments (the drain protocol reassigns the capacity without losing
// rows), under-quota sessions gain the least-loaded workers. A session
// whose quota rounds to zero still gets a secondary assignment on the
// least-loaded worker, so no tenant starves outright while any capacity
// exists. The fleet controller calls this every Step, and a fleet
// worker's registration runs it once for the new member.
func (s *Service) Rebalance() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebalanceLocked()
}

func (s *Service) rebalanceLocked() {
	// Live capacity, in registration order for determinism.
	members := make([]*fleetMember, 0, len(s.fleet))
	for _, fm := range s.fleet {
		if !fm.draining {
			members = append(members, fm)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].seq < members[j].seq })

	// Active tenants (not done), in creation order.
	active := make([]*svcSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if done, _ := sess.master.Done(); done {
			sess.target = 0
			continue
		}
		active = append(active, sess)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].seq < active[j].seq })

	weights := make([]float64, len(active))
	for i, sess := range active {
		weights[i] = sess.weight
	}
	targets := fairShare(len(members), weights)
	// A tenant whose quota rounds to zero still holds one (shared)
	// worker as long as any capacity exists: without this floor the
	// shed phase below would revoke the piggyback assignment the grant
	// phase just made, and the tenant's pipeline would flap through
	// endless drain/start cycles instead of making progress. The
	// floor keeps the allocation within one worker of the (sub-one)
	// quota, so the fair-share bound still holds.
	if len(members) > 0 {
		for i := range targets {
			if targets[i] == 0 {
				targets[i] = 1
			}
		}
	}
	activeSet := make(map[string]*svcSession, len(active))
	counts := make(map[string]int, len(active))
	for i, sess := range active {
		sess.target = targets[i]
		activeSet[sess.id] = sess
		counts[sess.id] = 0
	}

	// Revoke assignments to inactive sessions and count the rest.
	for _, fm := range members {
		for id := range fm.assigned {
			if activeSet[id] == nil {
				if sess := s.sessions[id]; sess != nil {
					_ = sess.master.Drain(fm.id)
				}
				delete(fm.assigned, id)
				continue
			}
			counts[id]++
		}
	}

	loadOf := func(fm *fleetMember) int { return len(fm.assigned) }

	// Shed over-target sessions from their most-loaded, newest members
	// first (LIFO keeps the warmest pipelines serving).
	for i, sess := range active {
		for counts[sess.id] > targets[i] {
			var victim *fleetMember
			for _, fm := range members {
				if !fm.assigned[sess.id] {
					continue
				}
				if victim == nil || loadOf(fm) > loadOf(victim) ||
					(loadOf(fm) == loadOf(victim) && fm.seq > victim.seq) {
					victim = fm
				}
			}
			if victim == nil {
				break
			}
			_ = sess.master.Drain(victim.id)
			delete(victim.assigned, sess.id)
			counts[sess.id]--
		}
	}

	// Grant under-target sessions the least-loaded members (oldest
	// first on ties) they are not already on.
	grant := func(sess *svcSession) bool {
		var best *fleetMember
		for _, fm := range members {
			if fm.assigned[sess.id] {
				continue
			}
			if best == nil || loadOf(fm) < loadOf(best) ||
				(loadOf(fm) == loadOf(best) && fm.seq < best.seq) {
				best = fm
			}
		}
		if best == nil {
			return false
		}
		best.assigned[sess.id] = true
		counts[sess.id]++
		return true
	}
	for i, sess := range active {
		for counts[sess.id] < targets[i] {
			if !grant(sess) {
				break
			}
		}
	}

	// Spread: a worker that registers after every target was met — each
	// registration rebalances, so the first member of a fleet takes every
	// session's floor — would otherwise idle beside a member hosting
	// several pipelines. Move one assignment at a time from the most-
	// loaded member (its newest session, LIFO as above) to an idle one;
	// the drain protocol hands the work over without losing rows.
	for _, idle := range members {
		if loadOf(idle) > 0 {
			continue
		}
		var donor *fleetMember
		for _, fm := range members {
			if loadOf(fm) >= 2 && (donor == nil || loadOf(fm) > loadOf(donor)) {
				donor = fm
			}
		}
		if donor == nil {
			break
		}
		var move *svcSession
		for id := range donor.assigned {
			if sess := activeSet[id]; move == nil || sess.seq > move.seq {
				move = sess
			}
		}
		_ = move.master.Drain(donor.id)
		delete(donor.assigned, move.id)
		idle.assigned[move.id] = true
	}

	// Enforce the assignment invariant against reality: a pipeline
	// registered (non-draining) with a session master whose fleet
	// member no longer holds the assignment is a ghost — its grant was
	// revoked while its registration was still in flight, so the
	// revoke's Drain missed it. Left alone it would hold capacity the
	// ledger doesn't count and block its member from ever draining;
	// re-issuing the Drain here retires it on the next cycle.
	for _, sess := range active {
		eps, err := sess.master.ListWorkers()
		if err != nil {
			continue
		}
		for _, ep := range eps {
			if ep.Draining {
				continue
			}
			if fm := s.fleet[ep.ID]; fm == nil || !fm.assigned[sess.id] {
				_ = sess.master.Drain(ep.ID)
			}
		}
	}
}

// ReapDead is the one place a worker is declared dead. A crashed
// worker never deregisters, so a fleet member whose fleet heartbeat
// has been silent for FleetLeaseTimeout is forgotten and deregistered
// at every session's master, which requeues its pipelines' leases
// there and keeps their last-reported recovery counters. Every master
// then requeues the leases held past maxLeaseAge (requeueWedged).
func (s *Service) ReapDead() {
	s.mu.Lock()
	timeout := s.FleetLeaseTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	now := s.now()
	var dead []string
	for id, fm := range s.fleet {
		if now.Sub(fm.lastSeen) > timeout {
			dead = append(dead, id)
			delete(s.fleet, id)
		}
	}
	masters := make([]*Master, 0, len(s.sessions))
	for _, sess := range s.sessions {
		masters = append(masters, sess.master)
	}
	s.mu.Unlock()

	for _, m := range masters {
		for _, id := range dead {
			_ = m.DeregisterWorker(id)
		}
		m.requeueWedged()
	}
}

// Done reports whether the service hosts at least one session and every
// session has completed; a session that failed (a split out of its
// poison budget) surfaces as the error.
func (s *Service) Done() (bool, error) {
	s.mu.Lock()
	masters := make([]*Master, 0, len(s.sessions))
	for _, sess := range s.sessions {
		masters = append(masters, sess.master)
	}
	s.mu.Unlock()
	if len(masters) == 0 {
		return false, nil
	}
	for _, m := range masters {
		done, err := m.Done()
		if err != nil || !done {
			return false, err
		}
	}
	return true, nil
}

// PolicyStats is what the Orchestrator's scaling policy evaluates: one
// snapshot per live fleet member, as reported by its fleet heartbeat.
// A FleetWorker's aggregate takes the minimum buffer level across its
// per-session pipelines, so one starving tenant makes its members read
// as starving — the tenant-aggregated signal the pool-sizing policy
// keys on. Members with no assignments report an idle profile, a drain
// candidate (FleetWorker.AggregateStats), and a member that registered
// but has not heartbeated yet reads as starving, which only hastens
// bootstrap.
func (s *Service) PolicyStats() []WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStats, 0, len(s.fleet))
	for _, fm := range s.fleet {
		if !fm.draining {
			out = append(out, fm.stats)
		}
	}
	return out
}

// idleBuffered is the synthetic buffer level reported for fleet workers
// with no assignments: far above any HighBuffer threshold, so the
// scale-down rule sees them as oversupply to drain.
const idleBuffered = 1 << 20

// serviceCheckpoint is the serialized state of every session.
type serviceCheckpoint struct {
	Sessions map[string][]byte
}

// Checkpoint serializes every session's reader state, keyed by session
// ID.
func (s *Service) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	sessions := make(map[string]*Master, len(s.sessions))
	for id, sess := range s.sessions {
		sessions[id] = sess.master
	}
	s.mu.Unlock()
	ckpt := serviceCheckpoint{Sessions: make(map[string][]byte, len(sessions))}
	for id, m := range sessions {
		b, err := m.Checkpoint()
		if err != nil {
			return nil, err
		}
		ckpt.Sessions[id] = b
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ckpt); err != nil {
		return nil, fmt.Errorf("dpp: service checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeServiceCheckpoint splits a service checkpoint back into
// per-session reader states (for RestoreSession on a replica).
func DecodeServiceCheckpoint(data []byte) (map[string][]byte, error) {
	var ckpt serviceCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ckpt); err != nil {
		return nil, fmt.Errorf("dpp: service checkpoint: %w", err)
	}
	return ckpt.Sessions, nil
}

var _ FleetControl = (*Service)(nil)
