// Package trainer is the GPU training node the DSI pipeline feeds (§6):
// a live trainer that consumes batches from a DPP client while measuring
// data stalls. The paper's host-cost models of a trainer (Table 7,
// Figure 8) are offline arithmetic and live with the experiments that
// print them (internal/experiments/costmodel.go).
package trainer

import (
	"runtime"
	"time"

	"dsi/internal/dpp"
)

// Trainer consumes preprocessed batches from a DPP client, simulating a
// GPU training loop and counting data stalls.
type Trainer struct {
	Client *dpp.Client
	// StepTime is the simulated GPU compute time per step; the trainer
	// sleeps this long after each consumed batch.
	StepTime time.Duration
	// StallPoll is how long a stalled step waits before retrying. Zero
	// yields the processor without a timed sleep: on a loaded host,
	// timed sleeps can stretch far past their nominal duration and park
	// the trainer long enough to mask real supply shortfalls, so
	// stall-rate measurements that must not depend on timer behaviour
	// poll with bare yields instead.
	StallPoll time.Duration

	StepsDone    int
	StallPolls   int
	RowsConsumed int64
	BytesLoaded  int64
}

// NewTrainer wraps a DPP client.
func NewTrainer(client *dpp.Client) *Trainer {
	return &Trainer{Client: client, StallPoll: 200 * time.Microsecond}
}

// Run trains until the session's data is exhausted or maxSteps batches
// are consumed (0 = unlimited). It returns the observed stall fraction:
// stalled polls over total polls.
func (t *Trainer) Run(maxSteps int) (float64, error) {
	for maxSteps == 0 || t.StepsDone < maxSteps {
		b, ok, done, err := t.Client.TryNext()
		if err != nil {
			return t.stallFraction(), err
		}
		if done {
			break
		}
		if !ok {
			t.StallPolls++
			if t.StallPoll > 0 {
				time.Sleep(t.StallPoll)
			} else {
				runtime.Gosched()
			}
			continue
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
	return t.stallFraction(), nil
}

func (t *Trainer) stallFraction() float64 {
	total := t.StepsDone + t.StallPolls
	if total == 0 {
		return 0
	}
	return float64(t.StallPolls) / float64(total)
}
