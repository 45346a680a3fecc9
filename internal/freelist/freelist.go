// Package freelist holds the runtime's one way to reuse a value: a
// typed, mutex-guarded LIFO free list.
//
// Unlike a sync.Pool, a List keeps what it is given across garbage
// collections, so a buffer grown to a workload's size stays grown and a
// collection costs the next caller nothing. It has no bound: a caller
// puts back only what it took, so a list never holds more values than
// its callers once held at the same time.
package freelist

import "sync"

// List is a free list of T. The zero value is an empty list ready to
// use; a List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the value put most recently. It reports false,
// with T's zero value, when the list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v, ok = l.free[n-1], true
		clear(l.free[n-1:]) // the list no longer holds what it handed out
		l.free = l.free[:n-1]
	}
	return v, ok
}

// Put adds v to the list.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
