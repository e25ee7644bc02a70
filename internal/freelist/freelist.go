// Package freelist keeps idle scratch values for reuse. Unlike a
// sync.Pool it is never emptied by the garbage collector: what it holds
// is set by how many borrowers overlapped, not by when the last
// collection ran, so a process's live heap after a collection reads the
// same from one run to the next.
package freelist

import "sync"

// List hands out values made by New and keeps up to Max returned ones;
// a value returned past that is left to the collector. The zero List
// with New and Max set is ready to use.
type List[T any] struct {
	New  func() *T
	Max  int
	mu   sync.Mutex
	idle []*T
}

// Get returns the most recently returned value, or a new one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.New()
}

// Put returns x for reuse; the caller must not touch it afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.idle) < l.Max {
		l.idle = append(l.idle, x)
	}
	l.mu.Unlock()
}
