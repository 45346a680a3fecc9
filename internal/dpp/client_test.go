package dpp

import (
	"sync"
	"testing"
	"time"

	"dsi/internal/tensor"
)

// listedMaster is a session master whose membership is one worker ID
// for good and whose session never completes.
type listedMaster struct {
	MasterAPI
	id string
}

func (m *listedMaster) ListWorkers() ([]WorkerEndpoint, error) {
	return []WorkerEndpoint{{ID: m.id}}, nil
}

func (m *listedMaster) Done() (bool, error) { return false, nil }

// queuedConn is a connection that hands out its batches in order and
// then reports its stream ended.
type queuedConn struct {
	mu      sync.Mutex
	batches []*tensor.Batch
}

func (c *queuedConn) FetchBatch() (*tensor.Batch, bool, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) == 0 {
		return nil, false, true, nil
	}
	b := c.batches[0]
	c.batches = c.batches[1:]
	return b, true, false, nil
}

func (c *queuedConn) announceTo(chan<- struct{}) {}

func (c *queuedConn) Drain() []*tensor.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.batches
	c.batches = nil
	return out
}

func (c *queuedConn) Close() error { return nil }

// TestClientRedialsEndedStreamUnderListedID re-registers a pipeline
// under a worker ID that never leaves the membership: the first
// connection's stream ends with done, and the batches of the pipeline
// now behind the same ID must still reach Next. A client that counted
// the ended connection as live never dialed the ID again and waited
// for good (the multi-tenant fleet's hang at GOMAXPROCS=1, where a
// drained pipeline's session was assigned back to its fleet worker).
func TestClientRedialsEndedStreamUnderListedID(t *testing.T) {
	first := &queuedConn{batches: []*tensor.Batch{{Rows: 1}}}
	second := &queuedConn{batches: []*tensor.Batch{{Rows: 2}, {Rows: 3}}}
	conns := []*queuedConn{first, second}
	dials := 0
	dial := func(ep WorkerEndpoint) (WorkerAPI, error) {
		if ep.ID != "fw-1" {
			t.Errorf("dialed %q, want fw-1", ep.ID)
		}
		c := conns[min(dials, len(conns)-1)]
		dials++
		return c, nil
	}
	client, err := NewSessionClient(&listedMaster{id: "fw-1"}, dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = time.Microsecond

	got := make(chan int, 3)
	go func() {
		defer close(got)
		for range 3 {
			b, ok, err := client.Next()
			if err != nil || !ok {
				t.Errorf("Next = ok %v, err %v", ok, err)
				return
			}
			got <- b.Rows
		}
	}()
	for want := 1; want <= 3; want++ {
		select {
		case rows, ok := <-got:
			if !ok {
				t.Fatalf("Next stopped before batch %d", want)
			}
			if rows != want {
				t.Fatalf("batch %d has %d rows, want %d", want, rows, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("batch %d never arrived: the ended connection was not dialed again", want)
		}
	}
	if dials < 2 {
		t.Fatalf("%d dials, want the listed ID dialed again after its stream ended", dials)
	}
}
