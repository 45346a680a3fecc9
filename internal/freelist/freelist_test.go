package freelist

import (
	"runtime"
	"sync"
	"testing"
)

func TestGetOnEmptyListReportsFalse(t *testing.T) {
	var l List[*int]
	if v, ok := l.Get(); ok || v != nil {
		t.Fatalf("Get on an empty list = %v, %v; want nil, false", v, ok)
	}
}

func TestListIsLIFO(t *testing.T) {
	var l List[int]
	for i := range 3 {
		l.Put(i)
	}
	for want := 2; want >= 0; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("Get after draining the list reported a value")
	}
}

// A sync.Pool drops its values at the second collection after a Put;
// a list keeps them.
func TestPutSurvivesGC(t *testing.T) {
	var l List[*[]byte]
	b := make([]byte, 1<<10)
	l.Put(&b)
	runtime.GC()
	runtime.GC()
	v, ok := l.Get()
	if !ok || v != &b {
		t.Fatalf("Get after two collections = %p, %v; want %p, true", v, ok, &b)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var l List[*int]
	const workers, rounds = 4, 1000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				*v++
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		v, ok := l.Get()
		if !ok {
			break
		}
		total += *v
	}
	if total != workers*rounds {
		t.Fatalf("values counted %d uses; want %d", total, workers*rounds)
	}
}
