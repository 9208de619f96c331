// Package txtrace is the request-scoped tracing layer: it threads one span
// per protocol request from the server transport down through every STM
// attempt that request runs, and feeds three consumers — a slow-transaction
// flight recorder, an OTLP-style JSON export, and the mctrace analyze
// conflict-graph reconstruction.
//
// The layer's cost contract mirrors txobs's: with tracing off, a request
// pays exactly one atomic load (ConnSpans.Begin reading the tracer mode).
// Everything else — per-event copies, the keep decision, ring publication —
// happens only on requests whose connection holds an active span.
//
// Sampling is adaptive head sampling: in sampled mode a deterministic
// 1-in-N head sampler (driven by internal/fault's seeded per-ordinal
// decision, point fault.TraceHeadSample) picks a baseline population, and
// every pathological request — an abort-retry chain of length ≥ K, any
// serialization, or latency above the rolling p99 estimate — is always kept
// regardless of the coin. Full mode keeps everything; off records nothing.
package txtrace

import (
	"sort"
	"sync/atomic"
	"time"
)

// SpanEvent is one STM event inside a request span: a begin, an abort (with
// cause, conflicting orec, and the owner label of the writer that held it),
// a serialization, or a commit. It is a flattened copy of txobs.Event plus
// the offset from the span start, so a span is self-contained once exported.
type SpanEvent struct {
	OffNanos int64  `json:"off_ns"` // offset from span start
	Kind     string `json:"kind"`
	Site     string `json:"site,omitempty"`
	Cause    string `json:"cause,omitempty"`
	Owner    string `json:"owner,omitempty"` // site of the conflicting writer
	Label    string `json:"label,omitempty"` // structure label of the conflicting orec
	Orec     int32  `json:"orec"`            // conflicting orec index, -1 = none
	Shard    int32  `json:"shard"`
	Retry    uint32 `json:"retry"` // consecutive-abort ordinal at event time
	Serial   bool   `json:"serial,omitempty"`
	Reads    uint32 `json:"reads"`
	Writes   uint32 `json:"writes"`
}

// Span is one kept request: identity, timing, its pathology summary, and the
// full event tree. Spans are immutable once published to a ring.
type Span struct {
	ID    uint64 `json:"id"`   // tracer-global span id (kept spans only)
	Conn  uint64 `json:"conn"` // connection id
	Seq   uint64 `json:"seq"`  // request ordinal on the tracer (all requests)
	Cmd   string `json:"cmd"`  // protocol command ("get", "incr", "binary/set", ...)
	Start int64  `json:"start"`

	DurNanos   int64  `json:"dur_ns"`
	Aborts     uint32 `json:"aborts"`     // abort events in the span
	MaxRetry   uint32 `json:"max_retry"`  // longest consecutive-abort chain seen
	Serialized bool   `json:"serialized"` // any serialization event
	MaxReads   uint32 `json:"max_reads"`  // largest read set of any attempt
	MaxWrites  uint32 `json:"max_writes"` // largest write set of any attempt
	Keep       string `json:"keep"`       // retries | serialized | slow | head | full
	Truncated  int    `json:"truncated"`  // events past the per-span cap, dropped

	Events []SpanEvent `json:"events"`
}

// SpanRing is a lock-free ring of kept spans, same discipline as txobs.Ring:
// writers reserve with one atomic add and publish with one pointer store,
// readers snapshot without blocking, overwrites past the capacity are counted
// in dropped rather than silently absorbed.
type SpanRing struct {
	slots   []atomic.Pointer[Span]
	mask    uint64
	head    atomic.Uint64
	dropped atomic.Uint64
}

// NewSpanRing creates a ring holding capacity spans (rounded up to a power of
// two, minimum 8).
func NewSpanRing(capacity int) *SpanRing {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return &SpanRing{slots: make([]atomic.Pointer[Span], c), mask: uint64(c - 1)}
}

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int { return len(r.slots) }

// Len returns the number of spans currently held.
func (r *SpanRing) Len() int {
	if h := r.head.Load(); h < uint64(len(r.slots)) {
		return int(h)
	}
	return len(r.slots)
}

// Recorded returns the number of spans ever recorded.
func (r *SpanRing) Recorded() uint64 { return r.head.Load() }

// Dropped returns the number of spans overwritten at wrap.
func (r *SpanRing) Dropped() uint64 { return r.dropped.Load() }

// Record publishes sp, overwriting (and counting) the oldest when full.
func (r *SpanRing) Record(sp *Span) {
	i := r.head.Add(1) - 1
	if i >= uint64(len(r.slots)) {
		r.dropped.Add(1)
	}
	r.slots[i&r.mask].Store(sp)
}

// Snapshot returns the spans currently held, oldest first (by span ID).
func (r *SpanRing) Snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		if sp := r.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// reset empties the ring and rewinds head and dropped.
func (r *SpanRing) reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
	r.head.Store(0)
	r.dropped.Store(0)
}

// durNanos is a helper bridging time.Duration and the int64 JSON fields.
func durNanos(d time.Duration) int64 { return int64(d) }
