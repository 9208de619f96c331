package loghist

import (
	"sync"
	"testing"
)

type obs struct {
	v, n uint64
}

// TestQuantiles is the shared quantile table: nearest-rank over the buckets,
// each quantile the bucket's inclusive upper bound clamped to the max. The
// first two rows are the windows the fingerprint (value sizes) and txobs
// (latencies, ns) layers checked before they shared this type.
func TestQuantiles(t *testing.T) {
	type bound struct{ lo, hi uint64 }
	cases := []struct {
		name          string
		in            []obs
		count, max    uint64
		p50, p95, p99 bound
	}{
		{
			name:  "fingerprint-vsize",
			in:    []obs{{100, 99}, {100000, 1}},
			count: 100, max: 100000,
			p50: bound{100, 127}, p95: bound{100, 127}, p99: bound{100, 127},
		},
		{
			name:  "txobs-latency",
			in:    []obs{{900, 90}, {70000, 10}},
			count: 100, max: 70000,
			p50: bound{900, 1024}, p95: bound{70000, 131072}, p99: bound{70000, 131072},
		},
		{
			name:  "clamped-to-max",
			in:    []obs{{100, 3}},
			count: 3, max: 100,
			p50: bound{100, 100}, p95: bound{100, 100}, p99: bound{100, 100},
		},
		{
			name:  "zeros",
			in:    []obs{{0, 5}},
			count: 5, max: 0,
		},
		{
			name:  "single-slow-tail",
			in:    []obs{{1, 199}, {1 << 20, 1}},
			count: 200, max: 1 << 20,
			p50: bound{1, 1}, p95: bound{1, 1}, p99: bound{1, 1},
		},
		{name: "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			var sum uint64
			for _, o := range tc.in {
				for i := uint64(0); i < o.n; i++ {
					h.Record(o.v)
				}
				sum += o.v * o.n
			}
			s := h.Snapshot()
			if s.Count != tc.count || s.Max != tc.max || s.Sum != sum {
				t.Fatalf("count=%d max=%d sum=%d, want %d %d %d", s.Count, s.Max, s.Sum, tc.count, tc.max, sum)
			}
			if tc.count > 0 && s.Mean != sum/tc.count {
				t.Errorf("mean = %d, want %d", s.Mean, sum/tc.count)
			}
			for _, q := range []struct {
				name string
				got  uint64
				want bound
			}{{"p50", s.P50, tc.p50}, {"p95", s.P95, tc.p95}, {"p99", s.P99, tc.p99}} {
				if q.got < q.want.lo || q.got > q.want.hi {
					t.Errorf("%s = %d, want in [%d, %d]", q.name, q.got, q.want.lo, q.want.hi)
				}
			}
		})
	}
}

// TestWindowOperations covers the window maintenance each consumer relies
// on: Decay (fingerprint's exponential window), Swap (the tracer's
// per-second harvest), Reset (stats reset) and Merge (per-writer views).
func TestWindowOperations(t *testing.T) {
	fill := func() *Histogram {
		var h Histogram
		for i := 0; i < 8; i++ {
			h.Record(100)
		}
		h.Record(5000)
		return &h
	}

	t.Run("decay", func(t *testing.T) {
		h := fill()
		h.Decay()
		s := h.Snapshot()
		// 8 → 4 in the 100s bucket, 1 → 0 in the 5000s bucket; the max is a
		// high-water mark and survives.
		if s.Count != 4 || s.Sum != (800+5000)/2 || s.Max != 5000 {
			t.Fatalf("after decay: %+v", s)
		}
		if s.P99 != 127 {
			t.Fatalf("p99 after decay = %d, want 127", s.P99)
		}
	})

	t.Run("swap-to-zero", func(t *testing.T) {
		h := fill()
		s := h.Swap()
		if s.Count != 9 || s.Max != 5000 || s.Sum != 5800 || s.P99 != 5000 {
			t.Fatalf("swapped window: %+v", s)
		}
		if z := h.Snapshot(); z.Count != 0 || z.Sum != 0 || z.Max != 0 {
			t.Fatalf("histogram not zero after swap: %+v", z)
		}
		h.Record(3)
		if n := h.Swap(); n.Count != 1 || n.Max != 3 || n.P99 != 3 {
			t.Fatalf("next window: %+v", n)
		}
	})

	t.Run("reset", func(t *testing.T) {
		h := fill()
		h.Reset()
		if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.P99 != 0 {
			t.Fatalf("reset left state: %+v", s)
		}
	})

	t.Run("merge", func(t *testing.T) {
		a, b := fill(), fill()
		b.Record(1 << 30)
		var m Snapshot
		m.Merge(a.Snapshot())
		m.Merge(b.Snapshot())
		if m.Count != 19 || m.Max != 1<<30 || m.Sum != 2*5800+1<<30 {
			t.Fatalf("merged: %+v", m)
		}
		if m.P50 != 127 || m.P99 != 1<<30 {
			t.Fatalf("merged quantiles p50=%d p99=%d", m.P50, m.P99)
		}
	})
}

// TestConcurrentRecord checks the derived count equals the number of
// Records issued from many goroutines at once (run under -race).
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(uint64(i * (g + 1)))
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4000 || s.Max != 999*4 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
}

// TestRecordDoesNotAllocate pins the hot path used by the event loop on every
// burst.
func TestRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %v times", n)
	}
}
