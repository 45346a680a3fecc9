package dpp

// Observation hooks for this package's tests: reads of runtime state
// that no runtime caller needs.

// Buffered reports the number of buffered batches.
func (w *Worker) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buffer.Len()
}

// Undelivered reports batches the worker is still responsible for:
// buffered plus sent into stream windows but not yet granted.
func (w *Worker) Undelivered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buffer.Len() + w.outstanding
}

// Pipeline returns the hosted pipeline worker for one session (nil when
// the session is not assigned here).
func (fw *FleetWorker) Pipeline(sessionID string) *Worker {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if p := fw.pipelines[sessionID]; p != nil {
		return p.w
	}
	return nil
}

// Connections reports how many workers the client is attached to.
func (c *Client) Connections() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// SplitReleases reports how many times each split has been released
// back for requeue.
func (m *Master) SplitReleases() map[int]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]int, len(m.poison))
	for k, v := range m.poison {
		out[k] = v
	}
	return out
}
