// Package loghist is the repository's one latency/size histogram: lock-free,
// power-of-two buckets, quantiles resolved to a bucket's inclusive upper
// bound. Every telemetry layer (txobs phase and command latencies, the
// fingerprint value-size and wire-transaction windows, the event loop's
// dispatch and burst distributions, the request tracer's per-second p99)
// records into this type, so one bucket rule and one quantile rule hold on
// every surface.
package loghist

import (
	"math/bits"
	"sync/atomic"
)

// Buckets is the bucket count. Bucket b holds observations v with
// bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b−1]; bucket 0 holds exactly
// zero, and the last bucket absorbs everything from 2^62 up.
const Buckets = 64

// Histogram is safe for any number of concurrent Record callers and snapshot
// readers. Recording costs one bucket add, one sum add and a max CAS that
// almost never retries; the count is derived from the buckets rather than
// kept in a separate counter, so the hot path pays no fourth atomic.
type Histogram struct {
	buckets [Buckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= Buckets {
		b = Buckets - 1
	}
	return b
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is a point-in-time summary. The JSON form carries the summary;
// the raw buckets feed merging and the Prometheus exposition.
type Snapshot struct {
	Count   uint64          `json:"count"`
	Sum     uint64          `json:"sum"`
	Mean    uint64          `json:"mean"`
	P50     uint64          `json:"p50"`
	P95     uint64          `json:"p95"`
	P99     uint64          `json:"p99"`
	Max     uint64          `json:"max"`
	Buckets [Buckets]uint64 `json:"-"`
}

// Snapshot summarizes the histogram. It is not atomic with respect to
// concurrent Records: an observation may land in a bucket read before its
// sum or max is, so the skew is at most the handful in flight.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	s.summarize()
	return s
}

// Swap returns the histogram's contents and zeroes it in the same pass: the
// per-interval harvest of a window that starts empty every interval.
func (h *Histogram) Swap() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Swap(0)
	}
	s.Sum = h.sum.Swap(0)
	s.Max = h.max.Swap(0)
	s.summarize()
	return s
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
	h.max.Store(0)
}

// Decay halves every bucket and the sum: one step of an exponentially
// decayed window. Max is left as a high-water mark. A Record racing the
// load/store pair may lose its increment; a decayed window is statistical,
// so that skew is accepted by design.
func (h *Histogram) Decay() {
	for i := range h.buckets {
		h.buckets[i].Store(h.buckets[i].Load() / 2)
	}
	h.sum.Store(h.sum.Load() / 2)
}

// Merge folds o's observations into s and recomputes the summary (merging
// per-writer histograms into one view).
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.summarize()
}

// summarize derives Count, Mean and the quantiles from the raw buckets.
func (s *Snapshot) summarize() {
	s.Count = 0
	for _, c := range s.Buckets {
		s.Count += c
	}
	s.Mean, s.P50, s.P95, s.P99 = 0, 0, 0, 0
	if s.Count == 0 {
		return
	}
	s.Mean = s.Sum / s.Count
	s.P50, s.P95, s.P99 = s.quantile(50), s.quantile(95), s.quantile(99)
}

// quantile returns the pct-th percentile (0 < pct ≤ 100) by nearest rank:
// the inclusive upper bound 2^b−1 of the bucket holding the ⌈pct·Count/100⌉-th
// observation, clamped to Max so no quantile exceeds what was observed. It is
// an upper estimate with at most 2x resolution.
func (s *Snapshot) quantile(pct uint64) uint64 {
	rank := (pct*s.Count + 99) / 100
	var cum uint64
	for b, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return min(UpperBound(b), s.Max)
		}
	}
	return s.Max
}

// UpperBound returns the inclusive upper bound of bucket b.
func UpperBound(b int) uint64 {
	if b >= Buckets-1 {
		return ^uint64(0)
	}
	return uint64(1)<<b - 1
}
