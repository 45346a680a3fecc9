package logdevice

import "dsi/internal/tectonic/faults"

// WriteFaultCounters is a snapshot of the store's cumulative write-fault
// accounting.
type WriteFaultCounters struct {
	// Failures counts appends rejected before any byte landed (Down or
	// WriteFailing windows).
	Failures int64
	// TornAcks counts appends that landed but lost their ack.
	TornAcks int64
	// DedupHits counts tokened retries resolved from the ledger.
	DedupHits int64
}

// SetWriteFaults installs (or, with nil, removes) a seeded schedule of
// write-fault windows consulted by every subsequent append. LogDevice is
// modelled as one logical sequencer, so windows target node 0 (plus
// Down, which it shares with the read-shaped states). Window spans are
// judged at time 0, so a window that starts at 0 is always active. With
// no schedule installed appends take the exact legacy path and keep no
// token ledger.
func (s *Store) SetWriteFaults(sched *faults.Schedule) {
	s.fmu.Lock()
	s.sched = sched
	s.fmu.Unlock()
}

func (s *Store) faultSchedule() *faults.Schedule {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.sched
}

// WriteFaultCounters snapshots the cumulative write-fault accounting.
func (s *Store) WriteFaultCounters() WriteFaultCounters {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.wstats
}
