// Package trainer is the GPU training node the DSI pipeline feeds (§6):
// a live trainer that consumes batches from a DPP client while measuring
// data stalls. A data stall is time: the trainer blocks in Client.Next
// until a batch arrives, and its stall fraction is the time spent inside
// Next over the wall time spent inside Run. The paper's host-cost models
// of a trainer (Table 7, Figure 8) are offline arithmetic and live with
// the experiments that print them (internal/experiments/costmodel.go).
package trainer

import (
	"time"

	"dsi/internal/dpp"
)

// Trainer consumes preprocessed batches from a DPP client, simulating a
// GPU training loop and timing data stalls.
type Trainer struct {
	Client *dpp.Client
	// StepTime is the simulated GPU compute time per step; the trainer
	// sleeps this long after each consumed batch.
	StepTime time.Duration

	StepsDone    int
	RowsConsumed int64
	BytesLoaded  int64
	// StallTime is the time spent inside Client.Next and Elapsed the wall
	// time spent inside Run, both summed over every Run call.
	StallTime time.Duration
	Elapsed   time.Duration
}

// NewTrainer wraps a DPP client.
func NewTrainer(client *dpp.Client) *Trainer {
	return &Trainer{Client: client}
}

// Run trains until the session's data is exhausted or StepsDone reaches
// maxSteps (0 = unlimited). It returns the stall fraction so far,
// StallTime over Elapsed.
func (t *Trainer) Run(maxSteps int) (float64, error) {
	start := time.Now()
	err := t.train(maxSteps)
	t.Elapsed += time.Since(start)
	if t.Elapsed == 0 {
		return 0, err
	}
	return float64(t.StallTime) / float64(t.Elapsed), err
}

// train is Run's loop: wait for a batch, step on it.
func (t *Trainer) train(maxSteps int) error {
	for maxSteps == 0 || t.StepsDone < maxSteps {
		wait := time.Now()
		b, ok, err := t.Client.Next()
		t.StallTime += time.Since(wait)
		if err != nil || !ok {
			return err
		}
		t.StepsDone++
		t.RowsConsumed += int64(b.Rows)
		t.BytesLoaded += b.SizeBytes()
		// The simulated step is done with the tensors; recycle them into
		// the wire codec's pools (no-op for non-streamed batches).
		b.Release()
		if t.StepTime > 0 {
			time.Sleep(t.StepTime)
		}
	}
	return nil
}
