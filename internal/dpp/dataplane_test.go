package dpp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// dataplaneTestBatch builds a deterministic batch for transport tests.
func dataplaneTestBatch(rows int, seed int64) *tensor.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := &tensor.Batch{
		Rows:            rows,
		DenseFeatureIDs: []schema.FeatureID{1, 2},
		Labels:          make([]float32, rows),
		Dense:           &tensor.Dense2D{Rows: rows, Cols: 2, Data: make([]float32, rows*2)},
	}
	for i := range b.Labels {
		b.Labels[i] = rng.Float32()
	}
	for i := range b.Dense.Data {
		b.Dense.Data[i] = rng.Float32()
	}
	st := &tensor.SparseTensor{Feature: 17, Offsets: make([]int32, 1, rows+1)}
	for r := 0; r < rows; r++ {
		for j := 0; j < 4; j++ {
			st.Indices = append(st.Indices, rng.Int63n(1<<18))
		}
		st.Offsets = append(st.Offsets, int32(len(st.Indices)))
	}
	b.Sparse = []*tensor.SparseTensor{st}
	return b
}

// countedSource serves copies of one batch a fixed number of times,
// tracking how many have been popped.
type countedSource struct {
	mu        sync.Mutex
	batch     *tensor.Batch
	remaining int
	popped    int
}

func (s *countedSource) TryGetBatch() (*tensor.Batch, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remaining <= 0 {
		return nil, false, true
	}
	s.remaining--
	s.popped++
	return s.batch, true, false
}

func (s *countedSource) Popped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.popped
}

func TestFramedStreamTransport(t *testing.T) {
	const n = 25
	batch := dataplaneTestBatch(32, 1)
	src := &countedSource{batch: batch, remaining: n}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := api.(*StreamWorker)
	if !ok {
		t.Fatalf("dial returned %T, want *StreamWorker", api)
	}
	defer sw.Close()

	want := tensor.NewContentSum()
	for i := 0; i < n; i++ {
		want.AddBatch(batch)
	}
	got := tensor.NewContentSum()
	received := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, ok, done, err := api.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("stream stalled after %d batches", received)
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		received++
		got.AddBatch(b)
		b.Release()
	}
	if received != n {
		t.Fatalf("received %d batches, want %d", received, n)
	}
	if !got.Equal(want) {
		t.Fatal("content sums diverge across the framed stream")
	}
}

func TestFramedStreamHonorsCreditWindow(t *testing.T) {
	// A client that never consumes must stop the stream after at most
	// the initial credit window, leaving the rest buffered server-side —
	// the backpressure that keeps a stalled trainer from unbounding
	// worker memory.
	src := &countedSource{batch: dataplaneTestBatch(8, 2), remaining: 100}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	defer sw.Close()
	time.Sleep(100 * time.Millisecond)
	if popped := src.Popped(); popped > defaultCreditWindow {
		t.Fatalf("server pushed %d batches against a credit window of %d", popped, defaultCreditWindow)
	}
}

func TestFramedStreamDrainRescuesWindow(t *testing.T) {
	const n = 6 // fits inside one credit window
	batch := dataplaneTestBatch(8, 3)
	src := &countedSource{batch: batch, remaining: n}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	// Wait for the server to push everything, consume one batch, then
	// drop the connection the way the client does on a membership
	// change: Drain must hand back exactly the unconsumed remainder.
	deadline := time.Now().Add(5 * time.Second)
	for src.Popped() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var first *tensor.Batch
	for first == nil {
		b, ok, _, err := api.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			first = b
		}
	}
	rescued := sw.Drain()
	sw.Close()
	if len(rescued)+1 != n {
		t.Fatalf("consumed 1 + drained %d, want %d total", len(rescued), n)
	}
	want, got := tensor.NewContentSum(), tensor.NewContentSum()
	for i := 0; i < n; i++ {
		want.AddBatch(batch)
	}
	got.AddBatch(first)
	for _, b := range rescued {
		got.AddBatch(b)
	}
	if !got.Equal(want) {
		t.Fatal("drain lost or duplicated content")
	}
}

func TestFramedStreamRequeuesOnAbnormalDisconnect(t *testing.T) {
	// An abnormal client disconnect (reset, not the graceful half-close)
	// must requeue the un-granted window into the worker's buffer, so a
	// second client still receives every batch exactly once.
	const n = 30
	wh, spec := buildFixture(t, 64, 16)
	spec.BufferDepth = n
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("requeue-w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	batch := dataplaneTestBatch(16, 5)
	for i := 0; i < n; i++ {
		if err := w.deliver(encodeFrame(batch), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.finish()
	counts := func() (buffered, outstanding int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.buffer.Len(), w.outstanding
	}
	ln, stop, err := ServeWorker(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	// Let the server push a full credit window, consume nothing, then
	// abort the connection with a reset.
	eventually(t, "a full credit window in flight", func() bool {
		buffered, outstanding := counts()
		return buffered == n-defaultCreditWindow && outstanding == defaultCreditWindow
	})
	if tc, ok := sw.conn.(*net.TCPConn); ok {
		tc.SetLinger(0) // close sends RST: the abnormal break
	}
	sw.Close()

	// The server must return the whole un-granted window to the buffer.
	eventually(t, "the window requeued", func() bool {
		buffered, outstanding := counts()
		return buffered == n && outstanding == 0
	})

	// A fresh client consumes the session: exactly n batches, no loss,
	// no duplicates.
	api2, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer api2.Close()
	received := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, ok, done, err := api2.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("second stream stalled after %d batches", received)
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		received++
		b.Release()
	}
	if received != n {
		t.Fatalf("second client received %d batches, want exactly %d", received, n)
	}
}

func TestRPCTransportEndToEndFramed(t *testing.T) {
	// The full worker path over the framed plane: the session's master
	// over RPC, worker serving its real buffer, client streaming frames.
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	if err := svc.CreateSession("job", spec); err != nil {
		t.Fatal(err)
	}
	ln, stopService, err := ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()

	rs, err := DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	remote, err := rs.SessionMaster("job")
	if err != nil {
		t.Fatal(err)
	}

	w, err := NewWorker("framed-w1", remote, wh)
	if err != nil {
		t.Fatal(err)
	}
	wln, stopWorker, err := ServeWorker(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWorker()
	go func() {
		if err := w.Run(nil); err != nil {
			t.Error(err)
		}
	}()

	api, err := DialWorkerFramed(wln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := api.(*StreamWorker); !ok {
		t.Fatalf("dial returned %T, want *StreamWorker", api)
	}
	client, err := NewClient([]WorkerAPI{api}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
		b.Release()
	}
	if rows != 128 {
		t.Fatalf("framed client saw %d rows, want 128", rows)
	}
	// Every granted batch must have retired from the worker's
	// outstanding stream window, so Retire would not block.
	deadline := time.Now().Add(5 * time.Second)
	for w.Undelivered() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := w.Undelivered(); n != 0 {
		t.Fatalf("worker still reports %d undelivered batches after full consumption", n)
	}
	if done, err := remote.Done(); err != nil || !done {
		t.Fatalf("remote Done = %v, %v", done, err)
	}
}

// streamFromBytes opens the client half of a stream against a peer that
// reads whatever the client sends and answers with exactly server, then
// hangs up.
func streamFromBytes(server []byte) (*StreamWorker, error) {
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		go io.Copy(io.Discard, srv) // the hello, then grants
		srv.Write(server)
	}()
	return openStream(cli, "")
}

// streamResult polls a stream to its end: the batches it delivered and
// how it ended (done frame, or the error FetchBatch surfaced).
func streamResult(t *testing.T, s *StreamWorker) (batches int, done bool, err error) {
	t.Helper()
	for {
		b, ok, done, err := s.FetchBatch()
		switch {
		case err != nil || done:
			return batches, done, err
		case ok:
			batches++
			b.Release()
		default:
			select {
			case <-s.readerDone:
			case <-time.After(10 * time.Second):
				t.Fatalf("stream neither ended nor delivered after %d batches", batches)
			}
		}
	}
}

// serverHello is the worker's half of the hello exchange.
var serverHello = append([]byte(dataPlaneMagic), dataPlaneVersion)

func TestStreamRejectsOversizedFrameBeforeAllocating(t *testing.T) {
	for _, n := range []uint32{maxFrameLen + 1, math.MaxUint32} {
		frame := append(append([]byte(nil), serverHello...), frameKindBatch)
		frame = binary.LittleEndian.AppendUint32(frame, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := streamFromBytes(frame)
		if err != nil {
			t.Fatal(err)
		}
		batches, done, err := streamResult(t, s)
		s.Close()
		runtime.ReadMemStats(&after)
		if batches != 0 || done || err == nil || !strings.Contains(err.Error(), "batch frame of") {
			t.Fatalf("frame announcing %d bytes: %d batches, done %v, err %v; want a frame-length error", n, batches, done, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("frame announcing %d bytes made the client allocate %d bytes", n, grew)
		}
	}
}

// taggedExchange is a server's half of a stream that sends one batch
// frame under the given tags, then done.
func taggedExchange(split, seq, seqCount int32) []byte {
	b := dataplaneTestBatch(4, 9)
	b.Split, b.Seq, b.SeqCount = split, seq, seqCount
	f := encodeFrame(b)
	out := append(append(append([]byte(nil), serverHello...), f.buf...), frameKindDone, 0, 0, 0, 0)
	f.free()
	return out
}

// TestStreamRejectsSeqOutsideSeqCount: a tagged frame whose seq lies
// outside [1, seq count] is a stream error, not a batch — admitted, it
// would count toward its split's completion marker and get the split's
// real batches dropped as duplicates. Untagged frames carry no seq to
// check.
func TestStreamRejectsSeqOutsideSeqCount(t *testing.T) {
	for _, tags := range [][3]int32{{1, 0, 2}, {1, 3, 2}, {1, 1, 0}, {1, -1, 2}, {-4, 0, 0}} {
		s, err := streamFromBytes(taggedExchange(tags[0], tags[1], tags[2]))
		if err != nil {
			t.Fatal(err)
		}
		batches, done, err := streamResult(t, s)
		s.Close()
		if batches != 0 || done || err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("split %d seq %d of %d: %d batches, done %v, err %v; want a seq error", tags[0], tags[1], tags[2], batches, done, err)
		}
	}
	for _, tags := range [][3]int32{{1, 1, 1}, {7, 2, 2}, {0, 0, 0}, {0, 5, 0}} {
		s, err := streamFromBytes(taggedExchange(tags[0], tags[1], tags[2]))
		if err != nil {
			t.Fatal(err)
		}
		batches, done, err := streamResult(t, s)
		s.Close()
		if batches != 1 || !done || err != nil {
			t.Fatalf("split %d seq %d of %d: %d batches, done %v, err %v; want the batch, then done", tags[0], tags[1], tags[2], batches, done, err)
		}
	}
}

// TestClientRefusesForgedSeqCount: a tagged frame announcing more
// batches than a split may hold is a stream error before the client's
// dedup ledger sees it, so a forged seq near 2^31 cannot make the
// ledger allocate a bit per announced batch. At the cap the frame is a
// batch, and its record costs at most maxSplitBatches bits.
func TestClientRefusesForgedSeqCount(t *testing.T) {
	next := func(tags [3]int32) (ok bool, grew uint64, err error) {
		t.Helper()
		s, err := streamFromBytes(taggedExchange(tags[0], tags[1], tags[2]))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := NewClient([]WorkerAPI{s}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, ok, err := c.Next()
		runtime.ReadMemStats(&after)
		if ok {
			b.Release()
		}
		return ok, after.TotalAlloc - before.TotalAlloc, err
	}
	for _, tags := range [][3]int32{{1, math.MaxInt32, math.MaxInt32}, {1, 1, maxSplitBatches + 1}} {
		ok, grew, err := next(tags)
		if ok || err == nil || !strings.Contains(err.Error(), "announces") {
			t.Fatalf("seq %d of %d: ok %v, err %v; want the stream refused", tags[1], tags[2], ok, err)
		}
		if grew > 1<<20 {
			t.Fatalf("seq %d of %d made the client allocate %d bytes", tags[1], tags[2], grew)
		}
	}
	ok, grew, err := next([3]int32{1, maxSplitBatches, maxSplitBatches})
	if !ok || err != nil {
		t.Fatalf("seq %d at the cap: ok %v, err %v; want the batch", maxSplitBatches, ok, err)
	}
	if grew > 1<<20 {
		t.Fatalf("a batch at the cap made the client allocate %d bytes", grew)
	}
}

// TestDedupLedgerBits drives the client's dedup ledger over a split of
// 130 batches, whose seqs take three words — the inline one and two
// more — admitted in a scrambled order beside a small split. A seq
// offered again before the split completes is refused; so is every seq
// of a whole re-delivery after it completed, when the record is the
// complete marker alone. An untagged batch is always admitted.
func TestDedupLedgerBits(t *testing.T) {
	c := &Client{}
	admit := func(split, seq, count int32) bool {
		return c.admitLocked(&blob{Split: split, Seq: seq, SeqCount: count})
	}
	const n = 130
	order := rand.New(rand.NewSource(1)).Perm(n)
	for i, p := range order {
		if !admit(1, int32(p+1), n) {
			t.Fatalf("seq %d refused on first delivery (%d admitted before it)", p+1, i)
		}
		if i < 3 && !admit(2, int32(3-i), 3) {
			t.Fatalf("split 2 seq %d refused on first delivery", 3-i)
		}
		if i == n/2 {
			// A crashed worker's re-run redelivers what was consumed so far.
			for _, q := range order[:i+1] {
				if admit(1, int32(q+1), n) {
					t.Fatalf("seq %d admitted twice before its split completed", q+1)
				}
			}
		}
		if done := c.seen[1].done; done != (i == n-1) {
			t.Fatalf("after %d of %d seqs the split reads done=%v", i+1, n, done)
		}
	}
	if got := c.seen[1]; !got.done || got.lo != 0 || got.more != nil || got.n != 0 {
		t.Fatalf("completed split's record = %+v, want the complete marker alone", got)
	}
	for _, split := range []int32{1, 2} {
		count := int32(3)
		if split == 1 {
			count = n
		}
		for seq := int32(1); seq <= count; seq++ {
			if admit(split, seq, count) {
				t.Fatalf("split %d seq %d admitted again after its split completed", split, seq)
			}
		}
	}
	if !admit(0, 0, 0) || !admit(0, 0, 0) {
		t.Fatal("untagged batches must always be admitted")
	}
}

func TestFramedHelloServedAtWindowCap(t *testing.T) {
	// A hello announcing a 4-billion-frame window, and later a grant for
	// frames never sent, must not pull more than maxCreditWindow batches
	// out of the worker's bounded buffer into the stream.
	src := &countedSource{batch: dataplaneTestBatch(4, 6), remaining: 10 * maxCreditWindow}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go io.Copy(io.Discard, conn) // read the frames, grant nothing
	if _, err := conn.Write(appendClientHello(nil, math.MaxUint32, "")); err != nil {
		t.Fatal(err)
	}
	settlesAt := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for src.Popped() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // room to overshoot
		if got := src.Popped(); got != want {
			t.Fatalf("server pushed %d batches, want exactly %d", got, want)
		}
	}
	settlesAt(maxCreditWindow)
	// A rogue grant is worth only the frames in flight: one more window.
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, math.MaxUint32)); err != nil {
		t.Fatal(err)
	}
	settlesAt(2 * maxCreditWindow)
}

func TestDialWorkerFramedSaysWhichStepFailed(t *testing.T) {
	// answering serves one connection with reply (nil: say nothing) and
	// holds it open until the test ends.
	answering := func(reply []byte) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			conn.Write(reply)
		}()
		return ln.Addr().String()
	}
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	ln, stop, err := ServeBatchSource(&countedSource{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cases := []struct {
		name, addr, want string
		slow             bool
	}{
		{name: "connect", addr: closed.Addr().String(), want: "connect:"},
		{name: "session not hosted", addr: ln.Addr().String(), want: "hung up before its hello (session not hosted there)"},
		{name: "wrong magic", addr: answering([]byte("HTTP/1.1 400")), want: `bad server hello "HTTP/"`},
		{name: "wrong version", addr: answering(append([]byte(dataPlaneMagic), 1)), want: "bad server hello"},
		{name: "hello timeout", addr: answering(nil), want: "no server hello within", slow: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("waits out the handshake timeout")
			}
			_, err := DialWorkerFramedSession(tc.addr, "tenant-7")
			if err == nil {
				t.Fatal("dial succeeded")
			}
			for _, want := range []string{tc.want, tc.addr, `"tenant-7"`} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("dial error %q does not mention %q", err, want)
				}
			}
		})
	}

	// A peer that is gone before the hello is written.
	cli, srv := net.Pipe()
	srv.Close()
	if _, err := openStream(cli, ""); err == nil || !strings.Contains(err.Error(), "write hello") {
		t.Fatalf("openStream on a dead peer = %v, want a hello write error", err)
	}
}

// TestTenantClientRedialsSessionNotYetHosted holds a fleet worker in
// the window where its pipeline is registered at the session's master
// (so ListWorkers returns it) but not yet hosted on its data plane: the
// tenant client's dial must fail, not fail the client, succeed on a
// later refresh, and the session must still deliver exactly once.
func TestTenantClientRedialsSessionNotYetHosted(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	golden := runWireSession(t, wh, spec, nil, "golden")

	svc := NewService(wh)
	if err := svc.CreateSession("s1", spec); err != nil {
		t.Fatal(err)
	}
	// The hook runs after the pipeline registered with s1's master and
	// before the fleet worker hosts it.
	listed, host := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ctrl := hookedFleet{FleetControl: svc, registered: func() {
		once.Do(func() { close(listed) })
		<-host
	}}
	fw, stop, err := ListenAndServeFleetWorker("fw1", "127.0.0.1:0", ctrl, wh, func(fw *FleetWorker) {
		fw.HeartbeatEvery = 5 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	svc.Rebalance()
	stopFW, fwDone := make(chan struct{}), make(chan error, 1)
	go func() { fwDone <- fw.Run(stopFW) }()
	<-listed

	var mu sync.Mutex
	var dialErrs []error
	dial := func(ep WorkerEndpoint) (WorkerAPI, error) {
		api, err := SessionWorkerDialer("s1")(ep)
		if err != nil {
			mu.Lock()
			dialErrs = append(dialErrs, err)
			mu.Unlock()
		}
		return api, err
	}
	client, err := NewTenantClient(svc, "s1", dial, 0, 0)
	if err != nil {
		t.Fatalf("a refused dial failed the client: %v", err)
	}
	if len(dialErrs) != 1 || client.Connections() != 0 {
		t.Fatalf("first refresh: %d dial errors, %d connections; want 1 and 0", len(dialErrs), client.Connections())
	}
	for _, want := range []string{"session not hosted", fw.Endpoint, `"s1"`} {
		if !strings.Contains(dialErrs[0].Error(), want) {
			t.Fatalf("dial error %q does not mention %q", dialErrs[0], want)
		}
	}
	if _, ok, done, err := client.TryNext(); ok || done || err != nil {
		t.Fatalf("TryNext with no reachable worker = ok %v done %v err %v; want a plain stall", ok, done, err)
	}

	close(host)
	sum, rows := tensor.NewContentSum(), 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
		sum.AddBatch(b)
		b.Release()
	}
	if rows != 128 || !sum.Equal(golden) {
		t.Fatalf("after the redial the session delivered %d rows (want 128), content equal: %v", rows, sum.Equal(golden))
	}
	close(stopFW)
	if err := <-fwDone; err != nil {
		t.Fatal(err)
	}
}

// recordedExchange is everything a version-3 worker writes on one
// stream that serves two 6-row batches to the end: hello, a TBF2 frame
// of 3-byte indices, one of 8-byte indices (a negative index needs all
// eight), done.
func recordedExchange(t testing.TB) []byte {
	t.Helper()
	wide := dataplaneTestBatch(6, 8)
	wide.Sparse[0].Indices[0] = -1
	src := &pollSource{queue: []*tensor.Batch{dataplaneTestBatch(6, 7), wide}, finished: true}
	cli, srv := net.Pipe()
	go serveFramedStream(singleSource(batchFrames{src}), srv)
	go cli.Write(appendClientHello(nil, defaultCreditWindow, ""))
	out, err := io.ReadAll(cli)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzStreamFrames feeds arbitrary server bytes to the client half of a
// stream: it must not panic, must not allocate past the frame cap, and
// must end in a done frame or an error from FetchBatch.
func FuzzStreamFrames(f *testing.F) {
	valid := recordedExchange(f)
	for i := 0; i <= len(valid); i++ {
		f.Add(valid[:i]) // every truncation point, and the whole exchange
	}
	oversized := append(append([]byte(nil), serverHello...), frameKindBatch)
	f.Add(binary.LittleEndian.AppendUint32(oversized, maxFrameLen+1))
	f.Add(append(append([]byte(nil), serverHello...), 9, 0, 0, 0, 0)) // unknown frame kind
	short := append(append([]byte(nil), serverHello...), frameKindBatch)
	f.Add(binary.LittleEndian.AppendUint32(short, batchTagLen-1))
	retired := append([]byte(nil), valid...)
	retired[len(dataPlaneMagic)] = 2
	f.Add(retired) // the retired v2 hello, before the same frames
	badSeq := taggedExchange(1, 3, 2)
	f.Add(badSeq) // a tagged frame whose seq passes its seq count
	forged := taggedExchange(1, math.MaxInt32, math.MaxInt32)
	f.Add(forged) // a seq count past maxSplitBatches
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := streamFromBytes(data)
		if err != nil {
			return // refused at the hello: a dial error
		}
		if bytes.Equal(data, retired) {
			t.Fatal("a client accepted the retired v2 hello")
		}
		defer s.Close()
		batches, done, err := streamResult(t, s)
		if !done && err == nil {
			t.Fatalf("stream ended after %d batches with neither a done frame nor an error", batches)
		}
		if bytes.Equal(data, valid) && (batches != 2 || !done) {
			t.Fatalf("the recorded exchange delivered %d batches, done %v, err %v", batches, done, err)
		}
		if (bytes.Equal(data, badSeq) || bytes.Equal(data, forged)) && (batches != 0 || err == nil) {
			t.Fatalf("a seq past its seq count delivered %d batches, err %v; want a stream error", batches, err)
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxFrameLen+8*len(data)+1<<20); grew > bound {
			t.Fatalf("%d input bytes made the client allocate %d bytes (bound %d)", len(data), grew, bound)
		}
	})
}

// FuzzFramedHello feeds arbitrary client bytes to the server half of a
// stream: it must not panic, must always hang up, and must resolve a
// batch source only for a well-formed hello — and then the session that
// hello names.
func FuzzFramedHello(f *testing.F) {
	valid := appendClientHello(nil, defaultCreditWindow, "s1")
	for i := 0; i <= len(valid); i++ {
		f.Add(valid[:i])
	}
	f.Add(appendClientHello(nil, 0, ""))
	f.Add(appendClientHello(nil, math.MaxUint32, "s1"))                                      // window past the cap
	f.Add(binary.LittleEndian.AppendUint32(appendClientHello(nil, 1, "s1"), math.MaxUint32)) // rogue grant
	f.Add(append(append([]byte(nil), valid...), 1, 0, 0))                                    // torn grant
	f.Add(append([]byte("DSI1\x01"), valid[5:]...))                                          // the retired v1 hello
	f.Add(append([]byte("DSI1\x02"), valid[5:]...))                                          // the retired v2 hello
	f.Add(append([]byte("GET /"), valid[5:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resolved []string
		resolve := func(session string) (frameSource, error) {
			resolved = append(resolved, session)
			return batchFrames{&countedSource{batch: dataplaneTestBatch(4, 8), remaining: 2}}, nil
		}
		cli, srv := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			serveFramedStream(resolve, srv)
		}()
		go io.Copy(io.Discard, cli) // the server hello and frames
		cli.Write(data)             // cut short when the server hangs up first
		cli.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("server still serving a stream whose client hung up")
		}
		if _, err := srv.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("server returned without closing its connection (write: %v)", err)
		}

		var want []string
		if n := clientHelloFixedLen; len(data) >= n && string(data[:len(dataPlaneMagic)]) == dataPlaneMagic &&
			data[len(dataPlaneMagic)] == dataPlaneVersion && len(data) >= n+int(data[n-1]) {
			want = []string{string(data[n : n+int(data[n-1])])}
		}
		if !slices.Equal(resolved, want) {
			t.Fatalf("hello %q resolved sessions %q, want %q", data, resolved, want)
		}
	})
}

// TestSecondStreamPayloadAllocs: a client stream reads every frame into
// one payload buffer, which outlives the stream on a process-wide list,
// so a second stream over frames of the same size allocates no payload
// buffer: it allocates less than half of one payload in all, server and
// connection included. A stream that grew its own buffer allocated at
// least a whole payload.
func TestSecondStreamPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	batch := dataplaneTestBatch(4096, 3)
	f := encodeFrame(batch)
	payload := uint64(len(f.buf) - frameHeaderLen)
	f.free()
	stream := func() uint64 {
		t.Helper()
		const n = defaultCreditWindow / 2 // sent without waiting for a grant
		ln, stop, err := ServeBatchSource(&countedSource{batch: batch, remaining: n}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		api, err := DialWorkerFramed(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		got, done, err := streamResult(t, api.(*StreamWorker))
		api.Close()
		runtime.ReadMemStats(&after)
		if got != n || !done || err != nil {
			t.Fatalf("stream delivered %d of %d batches, done %v, err %v", got, n, done, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := stream()
	second := stream()
	t.Logf("payload %d B; first stream %d B, second %d B", payload, first, second)
	if second >= payload/2 {
		t.Fatalf("the second stream allocated %d bytes against a %d-byte payload", second, payload)
	}
}
