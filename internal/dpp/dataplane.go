package dpp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"dsi/internal/freelist"
	"dsi/internal/tensor"
)

// This file is the worker→trainer data plane, the hot path that moves
// every training byte and where the paper's "datacenter tax" (§6.2,
// §7.2) is paid. It is one framed stream per (client, worker) pair:
//
//   - The client opens the stream with a hello naming the session and a
//     credit window; the worker pushes length-prefixed flat-binary batch
//     frames (TBF2, see tensor/wire.go) as the delivery stage produces
//     them, so no batch costs a round trip while the worker's bounded
//     buffer (BufferDepth / MaxBufferedBytes) keeps applying
//     backpressure.
//   - Credit-based flow control. The worker may have at most `window`
//     un-acknowledged frames in flight; the client grants one credit per
//     consumed batch. A stalled trainer therefore stops the stream after
//     at most one window, and the stall propagates back through the
//     worker's delivery buffer.
//   - The frame is the batch. A worker's evaluator writes each batch
//     once, straight from the transformed split into a recycled frame
//     (tensor.FrameWriter) that already holds the stream header and the
//     provenance tags below; the worker's buffer and the stream's
//     un-granted window hold that frame, the server writes it with a
//     single syscall and no further copy, and a grant or a crash
//     returns it to the free list while an abnormal break requeues the
//     same bytes. The client decodes into one recycled slab per batch
//     that the trainer returns with Batch.Release.
//
// Wire protocol, after the client connects:
//
//	client hello : "DSI1" | u8 version | u32 credit window
//	               | u8 session length | session bytes
//	server hello : "DSI1" | u8 version
//	server frame : u8 kind | u32 payload length | payload
//	               kind 1 = batch: u32 split | u32 seq | u32 seq count
//	               (the batch's delivery provenance, see tensor.Batch)
//	               | one TBF2 tensor frame
//	               kind 2 = done  (worker finished and drained; len 0)
//	client grant : u32 credit delta (any time after the hello)
//
// The session ID routes the stream to one pipeline behind a fleet
// worker's single listener (empty = the one buffer a ServeWorker /
// ServeBatchSource listener serves), and the (split, seq) tags let
// clients deduplicate redelivery after a worker crash. A worker that does not
// host the named session hangs up before its hello, which the dialer
// reports as an error; Client.Refresh retries on its next pass.
//
// Every length on the stream is untrusted: the server clamps the
// hello's window to maxCreditWindow and credits a grant only against
// frames it actually sent, and the client refuses a frame longer than
// maxFrameLen before allocating for it, and a seq count past
// maxSplitBatches before its dedup ledger records the seq.

const (
	// dataPlaneMagic opens both hellos of the framed protocol.
	dataPlaneMagic = "DSI1"
	// dataPlaneVersion is the one protocol version this package speaks:
	// 3 carries TBF2 tensor frames (narrow sparse indices).
	dataPlaneVersion = 3

	frameKindBatch = 1
	frameKindDone  = 2

	// frameHeaderLen is u8 kind | u32 payload length.
	frameHeaderLen = 5
	// batchTagLen is the length of a batch frame's provenance prefix
	// (u32 split | u32 seq | u32 seq count).
	batchTagLen = 12
	// maxFrameLen bounds the payload length a client accepts from a
	// frame header; a longer announcement is a corrupt or hostile stream.
	maxFrameLen = 64 << 20
	// maxSplitBatches bounds a tagged frame's seq count: a worker cuts
	// no split into more batches (writeFrames), and a client refuses a
	// frame announcing more, so one frame costs the dedup ledger at
	// most maxSplitBatches bits however its tags were forged.
	maxSplitBatches = 1 << 16

	// clientHelloFixedLen is the hello up to and including the session
	// length byte.
	clientHelloFixedLen = len(dataPlaneMagic) + 6
	// maxSessionIDLen bounds the session ID carried in the hello
	// (length-prefixed with one byte).
	maxSessionIDLen = 255

	// defaultCreditWindow is the per-stream in-flight batch budget a
	// client asks for; maxCreditWindow is the most a worker serves, so
	// one stream holds at most that many batches outside the worker's
	// bounded buffer whatever its hello says.
	defaultCreditWindow = 8
	maxCreditWindow     = 64

	// handshakeTimeout bounds each side's wait for the other's hello.
	handshakeTimeout = 3 * time.Second
)

// DataPlaneFramed is the one legal non-empty SessionSpec.DataPlane.
const DataPlaneFramed = "framed"

// frame is one batch as a worker holds and sends it: the whole stream
// frame — kind, payload length, provenance tags and the TBF2 tensor
// frame — in one recycled buffer, written once and written to the socket
// as is. rows and size are the batch's row count and SizeBytes (the i64
// tensor footprint the resource report prices), known from the writer
// so no one decodes a frame to count it.
type frame struct {
	buf  []byte
	rows int
	size int64
}

// freeFrames recycles frames with their buffers.
var freeFrames freelist.List[*frame]

// payloadBufs holds the payload buffers of ended client streams, so a
// stream starts with one an earlier stream grew to its frames' size
// (a session opens a stream per worker per epoch). A buffer grown past
// maxListedPayload is dropped rather than listed: a frame that long is
// rare or hostile (maxFrameLen allows 64 MiB), and every listed buffer
// stays resident.
var payloadBufs freelist.List[[]byte]

const maxListedPayload = 1 << 20

// newFrame draws a recycled frame and writes its batch header and tags;
// the caller appends the tensor frame and seals it.
func newFrame(split, seq, seqCount int32) *frame {
	f, ok := freeFrames.Get()
	if !ok {
		f = new(frame)
	}
	f.buf = append(f.buf[:0], frameKindBatch, 0, 0, 0, 0)
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(split))
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(seq))
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(seqCount))
	return f
}

// seal sets the payload length once the tensor frame is appended.
func (f *frame) seal(rows int, size int64) *frame {
	binary.LittleEndian.PutUint32(f.buf[1:frameHeaderLen], uint32(len(f.buf)-frameHeaderLen))
	f.rows, f.size = rows, size
	return f
}

// encodeFrame writes a batch into a recycled frame under its own tags.
func encodeFrame(b *tensor.Batch) *frame {
	f := newFrame(b.Split, b.Seq, b.SeqCount)
	f.buf = b.AppendBinary(f.buf)
	return f.seal(b.Rows, b.SizeBytes())
}

// free returns the frame to the free list; the caller must hold no other
// reference to it.
func (f *frame) free() { freeFrames.Put(f) }

// split is the frame's 1-based split tag (0 = untagged).
func (f *frame) split() int32 {
	return int32(binary.LittleEndian.Uint32(f.buf[frameHeaderLen:]))
}

// decode returns the batch the frame carries, tagged, in recycled tensors
// — what a client decodes off the stream, so the offline bypass
// (Worker.Sink) receives the same bytes a trainer does.
func (f *frame) decode() (*tensor.Batch, error) {
	return decodeBatchFrame(f.buf[frameHeaderLen:])
}

// decodeBatchFrame decodes a batch frame's payload: the provenance tags,
// then one tensor frame filling the rest. A tagged frame (split != 0)
// must name a seq in [1, seq count]: the client's dedup ledger counts
// every admitted seq toward the split's completion, so one out of range
// would later drop the split's real batches as duplicates. The seq count
// may not pass maxSplitBatches, which bounds the ledger's record.
func decodeBatchFrame(payload []byte) (*tensor.Batch, error) {
	split := int32(binary.LittleEndian.Uint32(payload[0:4]))
	seq := int32(binary.LittleEndian.Uint32(payload[4:8]))
	seqCount := int32(binary.LittleEndian.Uint32(payload[8:12]))
	if split != 0 && (seq < 1 || seq > seqCount) {
		return nil, fmt.Errorf("dpp: framed stream: split %d batch seq %d outside [1, %d]", split, seq, seqCount)
	}
	if split != 0 && seqCount > maxSplitBatches {
		return nil, fmt.Errorf("dpp: framed stream: split %d announces %d batches (max %d)", split, seqCount, maxSplitBatches)
	}
	b, n, err := tensor.DecodeBinary(payload[batchTagLen:])
	if err != nil {
		return nil, err
	}
	if n != len(payload)-batchTagLen {
		b.Release()
		return nil, fmt.Errorf("dpp: framed stream: %d trailing bytes after the tensor frame", len(payload)-batchTagLen-n)
	}
	b.Split, b.Seq, b.SeqCount = split, seq, seqCount
	return b, nil
}

// frameSource is the one contract the data plane serves a stream from:
// Worker implements it, and batchFrames adapts any BatchSource to it.
type frameSource interface {
	// tryGetFrame pops one buffered frame without blocking. done=true
	// means the source has finished and drained.
	tryGetFrame() (f *frame, ok bool, done bool)
	// BatchReady returns a channel closed the next time tryGetFrame may
	// answer differently (a frame arrived, or the source finished). The
	// server takes it before each pop and waits on it only after an
	// empty one, so no arrival is missed. A nil channel is polled.
	BatchReady() <-chan struct{}
	// ungetFrames takes back an abnormally broken stream's un-granted
	// window: the same bytes under the same tags go out again.
	ungetFrames(frames []*frame)
	// ackConsumed reports irrevocable consumption (a credit grant, a
	// gracefully rescued window); it drives split completion.
	ackConsumed(frames ...*frame)
	// addStreamOutstanding moves the count of frames in stream windows
	// not yet granted, so Retire never deregisters under a window that
	// could still break and be requeued.
	addStreamOutstanding(delta int)
	// crashedCh closes when fault injection kills the source: streams
	// then sever at once, requeueing and acking nothing. nil never
	// closes.
	crashedCh() <-chan struct{}
}

// BatchSource is a pop-only buffer of tensor batches that
// ServeBatchSource serves: benchmarks and tests serve synthetic batches
// through it. A source may also announce with a BatchReady method (see
// frameSource); one that does not is polled. It cannot take batches
// back, so a stream that breaks abnormally loses its window.
type BatchSource interface {
	// TryGetBatch pops one buffered batch without blocking. done=true
	// means the source has finished and drained.
	TryGetBatch() (b *tensor.Batch, ok bool, done bool)
}

// batchFrames adapts a BatchSource to the frame server: each popped
// batch is encoded once into a recycled frame under its own tags. The
// batch stays the source's.
type batchFrames struct{ src BatchSource }

func (s batchFrames) tryGetFrame() (*frame, bool, bool) {
	b, ok, done := s.src.TryGetBatch()
	if !ok {
		return nil, false, done
	}
	return encodeFrame(b), true, false
}

// BatchReady forwards the source's announcement; a source that does
// not announce answers nil and is polled.
func (s batchFrames) BatchReady() <-chan struct{} {
	if a, ok := s.src.(interface{ BatchReady() <-chan struct{} }); ok {
		return a.BatchReady()
	}
	return nil
}

// ungetFrames frees a broken stream's window: a pop-only source cannot
// take batches back.
func (batchFrames) ungetFrames(frames []*frame) {
	for _, f := range frames {
		f.free()
	}
}

// A BatchSource keeps no consumption ledger and cannot crash.
func (batchFrames) ackConsumed(...*frame)      {}
func (batchFrames) addStreamOutstanding(int)   {}
func (batchFrames) crashedCh() <-chan struct{} { return nil }

// sourceResolver routes a hello's session ID to the frame source that
// serves it: a fleet worker's per-session pipeline, or singleSource.
type sourceResolver func(session string) (frameSource, error)

// singleSource serves src to streams that name no session, and to no
// other.
func singleSource(src frameSource) sourceResolver {
	return func(session string) (frameSource, error) {
		if session != "" {
			return nil, fmt.Errorf("dpp: worker hosts no session %q", session)
		}
		return src, nil
	}
}

// serveDataPlaneOn serves framed streams on ln until the returned stop
// is called, resolving each stream's session through resolve.
func serveDataPlaneOn(resolve sourceResolver, ln net.Listener) func() {
	done := make(chan struct{})
	go acceptLoop(ln, done, func(conn net.Conn) {
		go serveFramedStream(resolve, conn)
	})
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			ln.Close()
		})
	}
}

// ServeBatchSource exposes a batch source on addr as the default
// session of a framed data plane — the entry point transport benchmarks
// and tests use to measure the wire path in isolation. Each popped
// batch is encoded into one frame (AppendBinary) and served like a
// worker's, except that an abnormally broken stream's window is lost.
func ServeBatchSource(src BatchSource, addr string) (net.Listener, func(), error) {
	return serveFrames(batchFrames{src}, addr)
}

// serveFrames exposes a frame source on addr as the default session of
// a framed data plane.
func serveFrames(src frameSource, addr string) (net.Listener, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return ln, serveDataPlaneOn(singleSource(src), ln), nil
}

// appendClientHello appends the client hello for one session.
func appendClientHello(dst []byte, window uint32, session string) []byte {
	dst = append(dst, dataPlaneMagic...)
	dst = append(dst, dataPlaneVersion)
	dst = binary.LittleEndian.AppendUint32(dst, window)
	dst = append(dst, byte(len(session)))
	return append(dst, session...)
}

// readClientHello parses the client hello, returning the credit window
// the stream will be served at — the announced one clamped to
// maxCreditWindow, or defaultCreditWindow when the client names none.
func readClientHello(r io.Reader) (window int, session string, err error) {
	var fixed [clientHelloFixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, "", err
	}
	const m = len(dataPlaneMagic)
	if string(fixed[:m]) != dataPlaneMagic || fixed[m] != dataPlaneVersion {
		return 0, "", fmt.Errorf("dpp: framed stream: bad client hello %q", fixed[:m+1])
	}
	switch announced := binary.LittleEndian.Uint32(fixed[m+1 : m+5]); {
	case announced == 0:
		window = defaultCreditWindow
	case announced > maxCreditWindow:
		window = maxCreditWindow
	default:
		window = int(announced)
	}
	sbuf := make([]byte, fixed[m+5])
	if _, err := io.ReadFull(r, sbuf); err != nil {
		return 0, "", err
	}
	return window, string(sbuf), nil
}

// serveFramedStream runs the server half of one framed stream: read the
// hello and resolve the session's batch source, track the client's
// credit, and push batch frames until the source drains or the
// connection breaks.
func serveFramedStream(resolve sourceResolver, conn net.Conn) {
	defer conn.Close()

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	window, session, err := readClientHello(br)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	src, err := resolve(session)
	if err != nil {
		// Unknown session: hang up before the server hello so the dialer
		// reports a handshake failure instead of a hung stream.
		return
	}
	if _, err := conn.Write(append([]byte(dataPlaneMagic), dataPlaneVersion)); err != nil {
		return
	}
	crashCh := src.crashedCh()

	// Credit reader: accumulate grants until the client goes away, and
	// retire granted frames from the un-granted window. A half-closed
	// connection (clean EOF — the client's polite "stop sending" before
	// it collects the stream, see StreamWorker.Drain) ends the grant
	// stream gracefully: the client keeps and consumes the window, so
	// the server must NOT requeue it. Any other read error is an
	// abnormal break: the client discards its partial window and the
	// un-granted frames are requeued into the source, so a transient
	// connection failure costs no rows. (The residual hazard is a grant
	// lost in flight for a batch the trainer already consumed — that
	// batch is requeued and delivered twice; the graceful paths are
	// exact.)
	//
	// A frame leaves the window back to the source (an abnormal break's
	// requeue) or for the free list (a grant, a crash, the end). Only this
	// goroutine — the one that writes frames — returns frames to the
	// free list, after its write of them has returned: a grant parks the
	// frames it retires in spent until then.
	//
	// Credit plus the frames in unacked is always window, and the loop
	// empties spent before each frame it sends, so none of unacked,
	// spent and the retired and freed lists copied from them holds more
	// than window+1 frames: all four are cut from one array made once.
	n := window + 1
	windows := make([]*frame, 4*n)
	var (
		creditMu sync.Mutex
		credit   = window
		unacked  = windows[0:0:n]
		spent    = windows[n : n : 2*n]
		abnormal bool
	)

	creditCh := make(chan struct{}, 1)
	connGone := make(chan struct{})
	go func() {
		defer close(connGone)
		var buf [4]byte
		retired := windows[2*n : 2*n : 3*n]
		for {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				if !errors.Is(err, io.EOF) {
					creditMu.Lock()
					abnormal = true
					creditMu.Unlock()
				}
				return
			}
			delta := binary.LittleEndian.Uint32(buf[:])
			creditMu.Lock()
			// A grant is worth only the frames it retires: a frame enters
			// unacked before it is written, so an honest client can never
			// grant more, and a hostile one cannot mint credit past the
			// window.
			granted := len(unacked)
			if delta < uint32(granted) {
				granted = int(delta)
			}
			credit += granted
			retired = append(retired[:0], unacked[:granted]...)
			unacked = append(unacked[:0], unacked[granted:]...)
			creditMu.Unlock()
			src.addStreamOutstanding(-granted)
			// A grant is the client's irrevocable consumption receipt;
			// it drives the worker's deferred split completion.
			src.ackConsumed(retired...)
			creditMu.Lock()
			spent = append(spent, retired...)
			creditMu.Unlock()
			select {
			case creditCh <- struct{}{}:
			default:
			}
		}
	}()

	// takeWindow empties the un-granted window and returns it.
	takeWindow := func() []*frame {
		creditMu.Lock()
		frames := append([]*frame(nil), unacked...)
		unacked = unacked[:0]
		creditMu.Unlock()
		src.addStreamOutstanding(-len(frames))
		return frames
	}
	// recycle returns consumed frames to the free list.
	recycle := func(frames []*frame) {
		for _, f := range frames {
			f.free()
		}
	}
	// freeSpent recycles the frames grants retired since the last call.
	freed := windows[3*n : 3*n : 4*n]
	freeSpent := func() {
		creditMu.Lock()
		freed = append(freed[:0], spent...)
		spent = spent[:0]
		creditMu.Unlock()
		recycle(freed)
	}
	defer freeSpent()
	// requeue returns the un-granted window to the source on an abnormal
	// break.
	requeue := func() { src.ungetFrames(takeWindow()) }
	connGoneExit := func() {
		creditMu.Lock()
		ab := abnormal
		creditMu.Unlock()
		if ab {
			requeue()
			return
		}
		// Graceful half-close: the client keeps and consumes (or
		// rescues) the window, so the un-granted frames count as
		// consumed — the rescue path (StreamWorker.Drain) delivers them
		// through the orphan queue.
		frames := takeWindow()
		src.ackConsumed(frames...)
		recycle(frames)
	}

	for {
		freeSpent()
		// Wait for credit.
		for {
			creditMu.Lock()
			have := credit > 0
			creditMu.Unlock()
			if have {
				break
			}
			select {
			case <-creditCh:
			case <-crashCh:
				// Fault injection: die like a killed process — sever
				// the conn, requeue nothing, ack nothing. The service's
				// reap (Service.ReapDead) recovers the leases.
				recycle(takeWindow())
				return
			case <-connGone:
				connGoneExit()
				return
			}
		}
		// Wait for a frame: take the source's announcement, try a pop,
		// and wait on the announcement only if the pop came back empty.
		var f *frame
		for f == nil {
			ready := src.BatchReady()
			ff, ok, done := src.tryGetFrame()
			if ok {
				f = ff
				break
			}
			if done {
				var hdr [frameHeaderLen]byte
				hdr[0] = frameKindDone
				conn.Write(hdr[:])
				// The remaining window belongs to the client now.
				frames := takeWindow()
				src.ackConsumed(frames...)
				recycle(frames)
				return
			}
			var tick <-chan time.Time
			if ready == nil {
				// A source that does not announce exposes only a
				// non-blocking pop, so an empty-but-live buffer is polled
				// at a period well under any batch production time.
				tick = time.After(200 * time.Microsecond)
			}
			select {
			case <-crashCh:
				recycle(takeWindow())
				return
			case <-connGone:
				connGoneExit()
				return
			case <-ready:
			case <-tick:
			}
		}
		// Enter the frame into the un-granted window BEFORE writing it: a
		// grant that races the write must retire the true FIFO head, and
		// a grant for this frame cannot arrive before the client has
		// read it.
		creditMu.Lock()
		credit--
		unacked = append(unacked, f)
		creditMu.Unlock()
		src.addStreamOutstanding(1)
		// One write: header, provenance tags and tensor frame were
		// written into one buffer when the batch was, so a batch costs a
		// single syscall and no copy.
		if _, err := conn.Write(f.buf); err != nil {
			// A write failure is an abnormal break: requeue the whole
			// un-granted window including this frame.
			requeue()
			return
		}
	}
}

// StreamWorker is the client half of a framed stream: a WorkerAPI whose
// FetchBatch pops from a local window of already-pushed batches instead
// of paying a round trip per batch.
type StreamWorker struct {
	conn    net.Conn
	batches chan *tensor.Batch

	// wmu serializes credit-grant writes from consumer goroutines, and
	// guards grantBuf, the grant each one writes.
	wmu      sync.Mutex
	grantBuf [4]byte

	// readerDone closes when the read loop exits; err and done are set
	// before it closes and read only after it, so they need no lock.
	readerDone chan struct{}
	err        error
	done       bool

	// arrivals is the one-slot channel a Client registered (announceTo):
	// the read loop pings it after every frame lands in the window and
	// when it exits, which is what Client.Next waits on between sweeps.
	amu      sync.Mutex
	arrivals chan<- struct{}

	closeOnce sync.Once
}

// ping leaves a wake-up in a one-slot channel unless one is already
// waiting there: the receiver re-reads all state when it wakes, so one
// pending ping stands for any number of events.
func ping(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// announceTo implements WorkerAPI.
func (s *StreamWorker) announceTo(ch chan<- struct{}) {
	s.amu.Lock()
	s.arrivals = ch
	s.amu.Unlock()
}

// announce pings the registered client, if any (a nil channel takes no
// ping).
func (s *StreamWorker) announce() {
	s.amu.Lock()
	ch := s.arrivals
	s.amu.Unlock()
	ping(ch)
}

// DialWorkerFramed opens a framed stream to the one buffer behind a
// ServeWorker / ServeBatchSource listener (the hello names no session).
func DialWorkerFramed(addr string) (WorkerAPI, error) {
	return DialWorkerFramedSession(addr, "")
}

// DialWorkerFramedSession opens a framed stream to one session's
// pipeline on a (fleet) worker's shared data-plane listener. The error
// names the step that failed — connect, the hello write, the wait for
// the worker's hello, or a worker that hung up because it does not
// (yet) host the session — with the address and session.
func DialWorkerFramedSession(addr, session string) (WorkerAPI, error) {
	if len(session) > maxSessionIDLen {
		return nil, fmt.Errorf("dpp: session ID %q exceeds %d bytes", session, maxSessionIDLen)
	}
	conn, err := net.DialTimeout("tcp", addr, rpcDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dpp: dial worker %s (session %q): connect: %w", addr, session, err)
	}
	s, err := openStream(conn, session)
	if err != nil {
		return nil, fmt.Errorf("dpp: dial worker %s (session %q): %w", addr, session, err)
	}
	return s, nil
}

// openStream runs the client half of the hello exchange on conn and
// starts the stream's read loop. It owns conn: a failed exchange closes
// it.
func openStream(conn net.Conn, session string) (_ *StreamWorker, err error) {
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(appendClientHello(nil, defaultCreditWindow, session)); err != nil {
		return nil, fmt.Errorf("write hello: %w", err)
	}
	var shello [len(dataPlaneMagic) + 1]byte
	if _, err := io.ReadFull(conn, shello[:]); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, fmt.Errorf("no server hello within %v: %w", handshakeTimeout, err)
		}
		return nil, fmt.Errorf("worker hung up before its hello (session not hosted there): %w", err)
	}
	if string(shello[:len(dataPlaneMagic)]) != dataPlaneMagic || shello[len(dataPlaneMagic)] != dataPlaneVersion {
		return nil, fmt.Errorf("bad server hello %q (want %q version %d)", shello[:], dataPlaneMagic, dataPlaneVersion)
	}
	conn.SetDeadline(time.Time{})
	s := &StreamWorker{
		conn:       conn,
		batches:    make(chan *tensor.Batch, defaultCreditWindow),
		readerDone: make(chan struct{}),
	}
	go s.readLoop()
	return s, nil
}

// SessionWorkerDialer returns the WorkerDialer bound to one session of
// a multi-tenant fleet: its streams carry the session in their hello.
func SessionWorkerDialer(session string) WorkerDialer {
	return func(ep WorkerEndpoint) (WorkerAPI, error) {
		return DialWorkerFramedSession(ep.Endpoint, session)
	}
}

// readLoop receives frames into the local window. The channel's
// capacity equals the credit window and a frame is granted only after
// it is popped, so a full channel means the server overran its credit.
func (s *StreamWorker) readLoop() {
	defer s.announce() // after readerDone closes: the end is an arrival too
	defer close(s.readerDone)
	r := bufio.NewReader(s.conn)
	var hdr [frameHeaderLen]byte
	// buf holds one frame payload at a time: the decode copies it out,
	// so the stream reuses it for every frame, and the next stream reuses
	// it after this one.
	buf, _ := payloadBufs.Get()
	defer func() {
		if c := cap(buf); c > 0 && c <= maxListedPayload {
			payloadBufs.Put(buf[:0])
		}
	}()
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF before a done frame is an error unless we closed the
			// connection ourselves; Close suppresses it via closeOnce.
			s.err = err
			return
		}
		kind, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:])
		switch kind {
		case frameKindDone:
			s.done = true
			return
		case frameKindBatch:
			if n < batchTagLen || n > maxFrameLen {
				s.err = fmt.Errorf("dpp: framed stream: batch frame of %d bytes (want %d..%d)", n, batchTagLen, maxFrameLen)
				return
			}
			if cap(buf) < int(n) {
				buf = make([]byte, n)
			}
			buf = buf[:n]
			if _, err := io.ReadFull(r, buf); err != nil {
				s.err = err
				return
			}
			b, err := decodeBatchFrame(buf)
			if err != nil {
				s.err = err
				return
			}
			select {
			case s.batches <- b:
				s.announce()
			default:
				b.Release()
				s.err = fmt.Errorf("dpp: framed stream: server overran the %d-frame credit window", cap(s.batches))
				return
			}
		default:
			s.err = fmt.Errorf("dpp: framed stream: unknown frame kind %d", kind)
			return
		}
	}
}

// grant returns n credits to the worker. Write errors are ignored: a
// broken connection surfaces on the read side, which is where the
// client's error handling already lives.
func (s *StreamWorker) grant(n uint32) {
	s.wmu.Lock()
	binary.LittleEndian.PutUint32(s.grantBuf[:], n)
	s.conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	s.conn.Write(s.grantBuf[:])
	s.conn.SetWriteDeadline(time.Time{})
	s.wmu.Unlock()
}

// FetchBatch implements WorkerAPI: it pops one batch from the stream's
// local window (granting a replacement credit) without blocking.
// ok=false with done=false means no frame has arrived yet; done=true
// means the worker sent its end-of-stream marker and the window is
// empty.
func (s *StreamWorker) FetchBatch() (*tensor.Batch, bool, bool, error) {
	select {
	case b := <-s.batches:
		s.grant(1)
		return b, true, false, nil
	default:
	}
	select {
	case b := <-s.batches:
		s.grant(1)
		return b, true, false, nil
	case <-s.readerDone:
		// Serve frames that arrived before the stream ended.
		select {
		case b := <-s.batches:
			return b, true, false, nil
		default:
		}
		if s.done {
			return nil, false, true, nil
		}
		return nil, false, false, s.err
	default:
		return nil, false, false, nil
	}
}

// Drain rescues every batch the stream has already received but the
// trainer has not consumed, for hand-off when the client drops this
// connection (a drained worker leaving the membership, or a rebalance).
// It half-closes the connection so the worker stops after its in-flight
// credit, waits for the stream to quiesce, and returns the window's
// contents. A stream that ended with an abnormal error (reset,
// truncated frame) returns nil instead: the worker requeued the
// un-granted window on its side, so keeping the local copy would
// deliver those batches twice.
func (s *StreamWorker) Drain() []*tensor.Batch {
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	var out []*tensor.Batch
	deadline := time.After(2 * time.Second)
collect:
	for {
		select {
		case b := <-s.batches:
			out = append(out, b)
		case <-s.readerDone:
			for {
				select {
				case b := <-s.batches:
					out = append(out, b)
				default:
					break collect
				}
			}
		case <-deadline:
			break collect
		}
	}
	if quiesced := isClosed(s.readerDone); quiesced && !s.done && s.err != nil && !errors.Is(s.err, io.EOF) {
		for _, b := range out {
			b.Release()
		}
		return nil
	}
	return out
}

// isClosed reports whether ch has been closed (non-blocking).
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Close tears the stream down. Batches still in the window are
// discarded; use Drain first to keep them.
func (s *StreamWorker) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.conn.Close() })
	return err
}

var _ WorkerAPI = (*StreamWorker)(nil)
