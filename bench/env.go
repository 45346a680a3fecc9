package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// The one data shape every workload uses: RM1 at 1% of its feature
// count (121 dense + 18 sparse stored features), of which a session
// reads the 12 most popular dense and 6 most popular sparse ones.
const (
	featureScale    = 0.01
	projectedDense  = 12
	projectedSparse = 6
	derivedFeatures = 6
	derivedBase     = schema.FeatureID(1 << 20)
	coalesceBytes   = 128 << 10
)

func dataSpec() datagen.DatasetSpec { return datagen.RM1.Scale(featureScale, 1, 0) }

func newWarehouse() (*tectonic.Cluster, *warehouse.Warehouse, error) {
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		return nil, nil, fmt.Errorf("new cluster: %w", err)
	}
	return cluster, warehouse.New(cluster), nil
}

// projection picks the most popular features of each kind. Popularity is
// fixed by the profile name, so every seed reads the same columns.
func projection(spec datagen.DatasetSpec) (dense, sparse []schema.FeatureID) {
	gen := datagen.NewGenerator(spec, 0)
	byRank := func(ids []schema.FeatureID, n int) []schema.FeatureID {
		sort.Slice(ids, func(i, j int) bool {
			ri, rj := gen.PopularityRank(ids[i]), gen.PopularityRank(ids[j])
			if ri != rj {
				return ri < rj
			}
			return ids[i] < ids[j]
		})
		ids = ids[:n]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for id := 1; id <= spec.DenseFeats; id++ {
		dense = append(dense, schema.FeatureID(id))
	}
	for id := spec.DenseFeats + 1; id <= spec.DenseFeats+spec.SparseFeats; id++ {
		sparse = append(sparse, schema.FeatureID(id))
	}
	return byRank(dense, projectedDense), byRank(sparse, projectedSparse)
}

// sessionSpec is the session every reading workload submits: the
// projection through transforms.StandardGraph, delivering the graph's
// terminal (derived) outputs, one prefetcher and one transformer per
// worker.
func sessionSpec(table string, unbounded bool, batchSize int) dpp.SessionSpec {
	dense, sparse := projection(dataSpec())
	graph := transforms.StandardGraph(dense, sparse, derivedFeatures, derivedBase)
	consumed := map[schema.FeatureID]bool{}
	for _, op := range graph.Ops() {
		for _, in := range op.Inputs() {
			consumed[in] = true
		}
	}
	var denseOut, sparseOut []schema.FeatureID
	for _, op := range graph.Ops() {
		if consumed[op.Output()] {
			continue
		}
		switch op.(type) {
		case *transforms.Logit, *transforms.BoxCox, *transforms.Clamp:
			denseOut = append(denseOut, op.Output())
		case *transforms.ComputeScore:
			// A score list is neither a dense nor a sparse tensor.
		default:
			sparseOut = append(sparseOut, op.Output())
		}
	}
	return dpp.SessionSpec{
		Table:     table,
		Unbounded: unbounded,
		Features:  append(append([]schema.FeatureID(nil), dense...), sparse...),
		Ops:       graph.Ops(),
		DenseOut:  denseOut,
		SparseOut: sparseOut,
		BatchSize: batchSize,
		Read:      dwrf.ReadOptions{CoalesceBytes: coalesceBytes, Flatmap: true},
		Pipeline:  dpp.PipelineOptions{Prefetchers: 1, TransformParallelism: 1},
		DataPlane: dpp.DataPlaneFramed,
	}
}

// timedMaster is the session's master as the workers see it, with a
// stopwatch on the two calls that bracket a split's life: the lease
// (NextSplit) and the consumption ack (CompleteSplit). It is how the
// benchmark times a split from outside the program.
type timedMaster struct {
	*dpp.Master

	mu     sync.Mutex
	leased map[int]time.Time
	held   []time.Duration // lease -> ack, one per completed split
}

func newTimedMaster(m *dpp.Master) *timedMaster {
	return &timedMaster{Master: m, leased: make(map[int]time.Time)}
}

func (t *timedMaster) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	sp, id, ok, draining, err := t.Master.NextSplit(workerID)
	if ok && err == nil {
		t.mu.Lock()
		t.leased[id] = time.Now()
		t.mu.Unlock()
	}
	return sp, id, ok, draining, err
}

func (t *timedMaster) CompleteSplit(workerID string, splitID int) error {
	now := time.Now()
	t.mu.Lock()
	if at, ok := t.leased[splitID]; ok {
		t.held = append(t.held, now.Sub(at))
		delete(t.leased, splitID)
	}
	t.mu.Unlock()
	return t.Master.CompleteSplit(workerID, splitID)
}

// session is one tenant's running DPP session: a master, its workers
// each serving the framed data plane on a loopback port, and one client
// connected to all of them.
type session struct {
	tenant  string
	master  *timedMaster
	workers []*dpp.Worker
	client  *dpp.Client

	// rows and wireBytes count what the client has consumed: rows, and
	// the size of the frames that carried them.
	rows      int64
	wireBytes int64

	runErrs chan error
	closers []func()
}

// startSession builds the session and starts its workers. The caller
// consumes with drain and then calls finish.
func startSession(wh *warehouse.Warehouse, spec dpp.SessionSpec, tenant string, workers int, cache *ware.Cache) (*session, error) {
	m, err := dpp.NewMaster(wh, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: new master: %w", tenant, err)
	}
	s := &session{tenant: tenant, master: newTimedMaster(m), runErrs: make(chan error, workers)}
	var apis []dpp.WorkerAPI
	for i := 0; i < workers; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("%s-w%d", tenant, i), s.master, wh)
		if err != nil {
			s.stop()
			return nil, err
		}
		if cache != nil {
			w.UseCache(cache, tenant)
		}
		ln, stopServe, err := dpp.ServeWorker(w, "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%s: serve worker: %w", tenant, err)
		}
		s.closers = append(s.closers, stopServe)
		api, err := dpp.DialWorkerFramed(ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%s: dial worker: %w", tenant, err)
		}
		if c, ok := api.(interface{ Close() error }); ok {
			s.closers = append(s.closers, func() { _ = c.Close() })
		}
		s.workers = append(s.workers, w)
		apis = append(apis, api)
	}
	if s.client, err = dpp.NewClient(apis, 0, 0); err != nil {
		s.stop()
		return nil, err
	}
	for _, w := range s.workers {
		go func(w *dpp.Worker) { s.runErrs <- w.Run(nil) }(w)
	}
	return s, nil
}

// drain is the trainer: it pulls batches until the session ends, folding
// each into sum.
func (s *session) drain(sum *tensor.ContentSum) error {
	for {
		b, ok, err := s.client.Next()
		if err != nil {
			return fmt.Errorf("%s: client: %w", s.tenant, err)
		}
		if !ok {
			return nil
		}
		s.rows += int64(b.Rows)
		s.wireBytes += int64(b.EncodedSize())
		sum.AddBatch(b)
		b.Release()
	}
}

// finish waits for the workers, tears the data plane down and checks the
// master agrees the session is complete.
func (s *session) finish() error {
	var first error
	for range s.workers {
		if err := <-s.runErrs; err != nil && first == nil {
			first = fmt.Errorf("%s: worker: %w", s.tenant, err)
		}
	}
	s.stop()
	if first != nil {
		return first
	}
	if done, err := s.master.Done(); err != nil || !done {
		return fmt.Errorf("%s: session ended with done=%v err=%v", s.tenant, done, err)
	}
	return nil
}

func (s *session) stop() {
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
}

// heldMs returns the lease->ack time of every completed split, in ms.
func (s *session) heldMs() []float64 {
	s.master.mu.Lock()
	defer s.master.mu.Unlock()
	out := make([]float64, len(s.master.held))
	for i, d := range s.master.held {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
