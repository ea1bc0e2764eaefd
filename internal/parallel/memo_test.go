package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleflight: concurrent callers of one key run the function
// once and all see its value.
func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	const callers = 16
	got := make([]int, callers)
	ranCount := atomic.Int32{}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ran := m.Do("k", func() int {
				calls.Add(1)
				<-release
				return 42
			})
			if ran {
				ranCount.Add(1)
			}
			got[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 || ranCount.Load() != 1 {
		t.Fatalf("fn ran %d times, %d callers report ran; want 1 and 1", calls.Load(), ranCount.Load())
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

// TestMemoPanicPropagates: a panicking computation re-panics in its
// caller and in every later caller of the key; Reset forgets it.
func TestMemoPanicPropagates(t *testing.T) {
	var m Memo[int, string]
	mustPanic := func(step string, fn func() string) {
		t.Helper()
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("%s: recovered %v, want boom", step, p)
			}
		}()
		m.Do(1, fn)
	}
	mustPanic("first call", func() string { panic("boom") })
	mustPanic("later call", func() string { return "unreached" })
	m.Reset()
	if v, ran := m.Do(1, func() string { return "ok" }); v != "ok" || !ran {
		t.Fatalf("after Reset: Do = %q, %v; want ok, true", v, ran)
	}
}
