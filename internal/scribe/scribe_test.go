package scribe

import (
	"fmt"
	"sync"
	"testing"

	"dsi/internal/logdevice"
)

func newBus() *Bus { return NewBus(logdevice.NewStore()) }

func TestPublishAndTail(t *testing.T) {
	b := newBus()
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(Message{Category: "rm1/features", Payload: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := b.Tail("rm1/features", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[0].Payload) != "m0" || string(recs[4].Payload) != "m4" {
		t.Fatalf("Tail = %+v", recs)
	}
}

func TestPublishEmptyCategory(t *testing.T) {
	b := newBus()
	if _, err := b.Publish(Message{Payload: []byte("x")}); err == nil {
		t.Fatal("empty category accepted")
	}
}

func TestCategoriesIsolated(t *testing.T) {
	b := newBus()
	if _, err := b.Publish(Message{Category: "a", Payload: []byte("in-a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Message{Category: "b", Payload: []byte("in-b")}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Tail("a", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "in-a" {
		t.Fatalf("category a = %+v", recs)
	}
	if recs, err := b.Tail("b", 1, 10); err != nil || len(recs) != 1 || string(recs[0].Payload) != "in-b" {
		t.Fatalf("category b = %+v, %v", recs, err)
	}
}

func TestBusCounters(t *testing.T) {
	b := newBus()
	if _, err := b.Publish(Message{Category: "c", Payload: []byte("12345")}); err != nil {
		t.Fatal(err)
	}
	if b.MessagesIn.Value() != 1 || b.BytesIn.Value() != 5 {
		t.Fatalf("counters = %d msgs, %d bytes", b.MessagesIn.Value(), b.BytesIn.Value())
	}
}

func TestTrimReleases(t *testing.T) {
	b := newBus()
	for i := 0; i < 4; i++ {
		if _, err := b.Publish(Message{Category: "c", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Trim("c", 2); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Tail("c", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("Tail after trim = %+v", recs)
	}
}

func TestTailLSN(t *testing.T) {
	b := newBus()
	if _, err := b.Publish(Message{Category: "c", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	lsn, err := b.TailLSN("c")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("TailLSN = %d, want 2", lsn)
	}
}

func TestDaemonBuffersAndFlushes(t *testing.T) {
	b := newBus()
	d := NewDaemon("host1", b)
	d.FlushThreshold = 3
	if err := d.Log("c", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Log("c", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if got := d.PendingCount(); got != 2 {
		t.Fatalf("PendingCount = %d, want 2", got)
	}
	if b.MessagesIn.Value() != 0 {
		t.Fatal("messages published before threshold")
	}
	if err := d.Log("c", []byte("3")); err != nil { // triggers flush
		t.Fatal(err)
	}
	if got := d.PendingCount(); got != 0 {
		t.Fatalf("PendingCount after flush = %d, want 0", got)
	}
	if b.MessagesIn.Value() != 3 {
		t.Fatalf("MessagesIn = %d, want 3", b.MessagesIn.Value())
	}
}

func TestDaemonExplicitFlushPreservesOrder(t *testing.T) {
	b := newBus()
	d := NewDaemon("host1", b)
	for i := 0; i < 5; i++ {
		if err := d.Log("c", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Tail("c", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if string(r.Payload) != fmt.Sprintf("%d", i) {
			t.Fatalf("record %d = %q", i, r.Payload)
		}
	}
}

func TestDaemonDropsAtLimit(t *testing.T) {
	b := newBus()
	d := NewDaemon("host1", b)
	d.FlushThreshold = 1000
	d.BufferLimit = 2
	for i := 0; i < 5; i++ {
		if err := d.Log("c", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Dropped.Value(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if got := d.PendingCount(); got != 2 {
		t.Fatalf("PendingCount = %d, want 2", got)
	}
}

// hookedPublisher records publishes and lets tests inject failures or
// blocking at arbitrary points in a flush.
type hookedPublisher struct {
	mu        sync.Mutex
	published []string
	onPublish func(payload string) error
}

func (p *hookedPublisher) Publish(m Message) (logdevice.LSN, error) {
	if p.onPublish != nil {
		if err := p.onPublish(string(m.Payload)); err != nil {
			return 0, err
		}
	}
	p.mu.Lock()
	p.published = append(p.published, string(m.Payload))
	p.mu.Unlock()
	return 0, nil
}

func (p *hookedPublisher) got() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.published...)
}

// Regression: a publish failure mid-flush must requeue the unpublished
// remainder (including the failed message) at the head of the buffer —
// the seed dropped the detached tail on the floor.
func TestFlushRequeuesUnsentTailOnError(t *testing.T) {
	p := &hookedPublisher{}
	failing := true
	p.onPublish = func(payload string) error {
		if failing && payload == "2" {
			return fmt.Errorf("injected publish failure")
		}
		return nil
	}
	d := &Daemon{Host: "h", bus: p, FlushThreshold: 1000}
	for i := 0; i < 5; i++ {
		if err := d.Log("c", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err == nil {
		t.Fatal("Flush succeeded despite injected failure")
	}
	if got := d.PendingCount(); got != 3 { // "2","3","4" requeued
		t.Fatalf("PendingCount after failed flush = %d, want 3", got)
	}
	// Messages logged after the failure must land behind the requeued tail.
	if err := d.Log("c", []byte("5")); err != nil {
		t.Fatal(err)
	}
	failing = false
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "1", "2", "3", "4", "5"}
	if got := p.got(); len(got) != len(want) {
		t.Fatalf("published = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("published = %v, want %v", got, want)
			}
		}
	}
}

// Regression: two concurrent flushes must not interleave their batches —
// the seed detached both batches and published them racily, reordering
// the category.
func TestConcurrentFlushesSerialized(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	p := &hookedPublisher{}
	p.onPublish = func(string) error {
		once.Do(func() {
			close(entered)
			<-gate
		})
		return nil
	}
	d := &Daemon{Host: "h", bus: p, FlushThreshold: 1000}
	for i := 0; i < 3; i++ {
		if err := d.Log("c", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.Flush(); err != nil {
			t.Error(err)
		}
	}()
	<-entered // first flush is mid-batch, blocked inside Publish
	for i := 3; i < 5; i++ {
		if err := d.Log("c", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.Flush(); err != nil {
			t.Error(err)
		}
	}()
	close(gate)
	wg.Wait()
	got := p.got()
	if len(got) != 5 {
		t.Fatalf("published %d messages, want 5: %v", len(got), got)
	}
	for i, payload := range got {
		if payload != fmt.Sprintf("%d", i) {
			t.Fatalf("interleaved flushes reordered category: %v", got)
		}
	}
}

func TestCloseCategory(t *testing.T) {
	b := newBus()
	if _, err := b.Publish(Message{Category: "c", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if b.Closed("c") {
		t.Fatal("category closed before CloseCategory")
	}
	if err := b.CloseCategory("c"); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseCategory("c"); err != nil { // idempotent
		t.Fatal(err)
	}
	if !b.Closed("c") {
		t.Fatal("Closed = false after CloseCategory")
	}
	if _, err := b.Publish(Message{Category: "c", Payload: []byte("y")}); err == nil {
		t.Fatal("publish to closed category accepted")
	}
	// Existing records stay readable.
	recs, err := b.Tail("c", 1, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Tail after close = %v, %v", recs, err)
	}
	// Closing a never-published category creates it so consumers see EOF.
	if err := b.CloseCategory("empty"); err != nil {
		t.Fatal(err)
	}
	if !b.Closed("empty") {
		t.Fatal("empty category not closed")
	}
}

func TestConcurrentPublish(t *testing.T) {
	b := newBus()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := b.Publish(Message{Category: "c", Payload: []byte("x")}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := b.MessagesIn.Value(); got != 800 {
		t.Fatalf("MessagesIn = %d, want 800", got)
	}
	recs, err := b.Tail("c", 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("Tail = %d records, want 800", len(recs))
	}
}
