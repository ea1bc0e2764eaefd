package serve_test

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// latencies is a latency sample set with tail-quantile extraction —
// the p99/p999 axis of the submission-path tests. Observations are
// stored exactly (the sets here are thousands of samples, not
// millions), so quantiles are exact nearest-rank values rather than
// sketch approximations. Safe for concurrent use.
type latencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Observe records one sample.
func (l *latencies) Observe(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// Count returns how many samples have been observed.
func (l *latencies) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// latencySummary is one snapshot of the distribution's headline
// quantiles plus mean and count.
type latencySummary struct {
	Count                     int
	Mean, P50, P90, P99, P999 time.Duration
	Max                       time.Duration
}

// String renders the summary as one human-readable line.
func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p999=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}

// Summary snapshots the distribution. No samples summarize to all
// zeros.
func (l *latencies) Summary() latencySummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	sorted := l.samples
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	s := latencySummary{
		Count: len(sorted),
		P50:   nearestRank(sorted, 0.50),
		P90:   nearestRank(sorted, 0.90),
		P99:   nearestRank(sorted, 0.99),
		P999:  nearestRank(sorted, 0.999),
	}
	if len(sorted) > 0 {
		s.Mean = sum / time.Duration(len(sorted))
		s.Max = sorted[len(sorted)-1]
	}
	return s
}

// nearestRank is the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted sample set: the ceil(q*n)-th smallest value, or 0
// when empty.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(n) * q))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
