package parallel

import "sync"

// Memo is a concurrency-safe memo with singleflight semantics: for each
// key, the first Do call runs its function while every concurrent or
// later caller of the same key blocks until it returns, then shares its
// value. A panic in the function is recorded and re-raised in the
// caller that ran it and in every caller of the key after it, so a
// failed computation propagates instead of deadlocking its waiters.
// The zero value is ready to use; a Memo must not be copied after
// first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// memoEntry is one key's slot: done closes once val (or panicked) is set.
type memoEntry[V any] struct {
	done     chan struct{}
	val      V
	panicked any
}

// Do returns the memoized value for key, computing it with fn if no
// call for key has started yet. ran reports whether this call ran fn;
// fn runs without the memo's lock held.
func (m *Memo[K, V]) Do(key K, fn func() V) (v V, ran bool) {
	m.mu.Lock()
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.val, false
	}
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			e.panicked = p
			close(e.done)
			panic(p)
		}
		close(e.done)
	}()
	e.val = fn()
	return e.val, true
}

// Reset forgets every key, so the next Do of each runs its function
// afresh. Calls already in flight finish and serve their own waiters.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	m.m = nil
	m.mu.Unlock()
}
