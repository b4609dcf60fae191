package obs

import (
	"fmt"
	"sync"
)

// latencyBuckets are the fixed upper bounds (inclusive, in ticks) of the
// commit-latency histogram. The domain is submit→commit distance in
// synchronous ticks: single digits for an uncontended fast gear, tens
// under pipelining depth, hundreds when chaos forces the heavy gear on a
// long queue. Fixed buckets keep Observe O(1) and allocation-free, make
// histograms mergeable across replicas by simple addition, and render
// directly as Prometheus cumulative buckets.
var latencyBuckets = [...]int{
	1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
}

// NumBuckets is the number of finite histogram buckets; an extra
// overflow bucket catches anything beyond the last bound.
const NumBuckets = len(latencyBuckets)

// Histogram is a fixed-bucket latency histogram over ticks. The zero
// value is ready to use. All methods are safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [NumBuckets + 1]uint64
	total  uint64
	sum    uint64
	max    int
}

// Observe records one latency sample (in ticks).
func (h *Histogram) Observe(ticks int) {
	if ticks < 0 {
		ticks = 0
	}
	i := 0
	for i < NumBuckets && ticks > latencyBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += uint64(ticks)
	if ticks > h.max {
		h.max = ticks
	}
	h.mu.Unlock()
}

// Merge adds other's samples into h. Fixed shared buckets make this a
// plain vector addition, which is what lets per-replica histograms fold
// into one log-level view.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	other.mu.Lock()
	counts, total, sum, max := other.counts, other.total, other.sum, other.max
	other.mu.Unlock()
	h.mu.Lock()
	for i := range counts {
		h.counts[i] += counts[i]
	}
	h.total += total
	h.sum += sum
	if max > h.max {
		h.max = max
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all recorded samples, in ticks (the Prometheus
// histogram _sum series).
func (h *Histogram) Sum() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the latency (in ticks) at quantile q in [0, 1],
// resolved to the upper bound of the bucket holding the q-th sample —
// a conservative (never underestimating) read, the convention fixed
// buckets afford — clamped to the observed max, which no quantile can
// exceed. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			if i < NumBuckets && latencyBuckets[i] < h.max {
				return latencyBuckets[i]
			}
			return h.max // the max's own bucket, or the overflow bucket
		}
	}
	return h.max
}

// LatencySummary is the rendered view of a Histogram: sample count,
// mean, and the percentile ladder the bench and load tools print.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ticks"`
	P50   int     `json:"p50_ticks"`
	P90   int     `json:"p90_ticks"`
	P99   int     `json:"p99_ticks"`
	Max   int     `json:"max_ticks"`
}

// Summarize renders the histogram.
func (h *Histogram) Summarize() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySummary{Count: h.total, Max: h.max}
	if h.total > 0 {
		s.Mean = float64(h.sum) / float64(h.total)
		s.P50 = h.quantileLocked(0.50)
		s.P90 = h.quantileLocked(0.90)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// String renders the summary on one line, e.g.
// "n=26 mean=8.4 p50=8 p90=12 p99=14 max=14 ticks".
func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d p99=%d max=%d ticks",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Buckets returns the cumulative bucket view: for each finite bucket,
// its upper bound (in ticks) and the count of samples ≤ that bound,
// plus the total (which includes the overflow bucket). This is exactly
// the Prometheus histogram contract (le-labeled cumulative counts with
// +Inf = total).
func (h *Histogram) Buckets() (bounds []int, cumulative []uint64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = make([]int, NumBuckets)
	cumulative = make([]uint64, NumBuckets)
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.counts[i]
		bounds[i] = latencyBuckets[i]
		cumulative[i] = cum
	}
	return bounds, cumulative, h.total
}
