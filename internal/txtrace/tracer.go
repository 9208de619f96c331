package txtrace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/loghist"
)

// Mode is the tracer's operating mode. The numeric values are stable: they
// are what ConnSpans.Begin reads with its single atomic load.
type Mode int32

const (
	// ModeOff records nothing; Begin returns false after one atomic load.
	ModeOff Mode = iota
	// ModeSampled keeps the deterministic 1-in-N head sample plus every
	// pathological request (retry chain ≥ K, serialization, latency > p99
	// estimate) — the always-sample escape hatch that makes rare pathologies
	// visible at low overhead.
	ModeSampled
	// ModeFull keeps every request. Diagnostic sessions only.
	ModeFull
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSampled:
		return "sampled"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int32(m))
}

// ParseMode converts a user-facing mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "0", "false":
		return ModeOff, nil
	case "sampled", "on", "1", "true":
		return ModeSampled, nil
	case "full", "2":
		return ModeFull, nil
	}
	return 0, fmt.Errorf("txtrace: unknown mode %q (off|sampled|full)", s)
}

// Options parameterizes a Tracer. The zero value gets usable defaults.
type Options struct {
	// Seed drives the deterministic head sampler (fault.TraceHeadSample):
	// the n-th request's sample decision is a pure function of (Seed, n), so
	// a trace population is replayable. 0 picks a fixed default.
	Seed uint64
	// SampleEvery is the head-sampling rate in sampled mode: on average one
	// request in SampleEvery is kept absent any pathology (default 64).
	SampleEvery int
	// RetryK is the abort-retry chain length at which a request is always
	// kept (default 4).
	RetryK int
	// RecentCap sizes the kept-span ring backing /debug/trace (default 256).
	RecentCap int
	// SlowCap sizes the slow-transaction flight-recorder ring (default 128).
	SlowCap int
	// TimeSeriesLen is the per-second counter history length (default 120).
	TimeSeriesLen int
	// MaxEventsPerSpan caps the event tree of one span; past it events are
	// counted in Span.Truncated instead of retained (default 256).
	MaxEventsPerSpan int
	// P99Decay is the EWMA weight of the newest per-second p99 observation
	// in the rolling estimate, in percent (default 20).
	P99Decay int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0x7478747261636531 // "txtrace1"
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.RetryK <= 0 {
		o.RetryK = 4
	}
	if o.RecentCap <= 0 {
		o.RecentCap = 256
	}
	if o.SlowCap <= 0 {
		o.SlowCap = 128
	}
	if o.TimeSeriesLen <= 0 {
		o.TimeSeriesLen = 120
	}
	if o.MaxEventsPerSpan <= 0 {
		o.MaxEventsPerSpan = 256
	}
	if o.P99Decay <= 0 || o.P99Decay > 100 {
		o.P99Decay = 20
	}
	return o
}

// GraphKey identifies one conflict-graph edge: the site that held the
// contended resource (owner), the site that aborted on it (victim), and the
// structure label the conflict landed on.
type GraphKey struct {
	Owner  string `json:"owner"`
	Victim string `json:"victim"`
	Label  string `json:"label"`
}

// GraphEdge is one weighted who-aborted-whom edge.
type GraphEdge struct {
	GraphKey
	Count uint64 `json:"count"`
}

// Anomaly is one detector trip.
type Anomaly struct {
	When   int64  `json:"when"`
	Kind   string `json:"kind"` // abort_spike | serialization_storm | p99_regression | watchdog_serialize
	Detail string `json:"detail"`
}

// Dump is one flight-recorder capture: the slowlog contents and conflict
// graph frozen at the moment an anomaly tripped (or a manual dump was asked
// for).
type Dump struct {
	When   int64       `json:"when"`
	Reason string      `json:"reason"`
	Spans  []Span      `json:"spans"`
	Graph  []GraphEdge `json:"graph"`
}

// maxDumps bounds the auto-capture list; older dumps fall off.
const maxDumps = 8

// Tracer owns the request-tracing state for one cache: the mode word, the
// deterministic head sampler, the kept-span and flight-recorder rings, the
// conflict graph, the per-second time series with its anomaly detector, and
// the rolling p99 latency estimate.
type Tracer struct {
	mode atomic.Int32
	opt  Options

	sampler *fault.Injector

	spanSeq atomic.Uint64 // kept spans
	reqSeq  atomic.Uint64 // all traced requests (= head-sampler ordinals)
	slowN   atomic.Uint64 // pathological spans ever captured

	// estP99 is the rolling p99 latency estimate in nanoseconds, updated by
	// Tick from the previous second's histogram. It starts effectively
	// infinite so the latency keep-rule cannot fire before one full tick of
	// evidence exists.
	estP99 atomic.Int64

	// win is the current second's request-latency histogram (ns), swapped
	// to zero by Tick.
	win loghist.Histogram

	recent *SpanRing // all kept spans (head sample + pathological)
	slow   *SpanRing // flight recorder: pathological spans only

	graphMu sync.Mutex
	graph   map[GraphKey]uint64

	ts *TimeSeries

	anomMu    sync.Mutex
	anomalies []Anomaly
	dumps     []Dump
	lastAnom  map[string]time.Time
	cooldown  time.Duration
}

// New creates a Tracer in ModeOff.
func New(opt Options) *Tracer {
	opt = opt.withDefaults()
	t := &Tracer{
		opt:      opt,
		sampler:  fault.New(opt.Seed),
		recent:   NewSpanRing(opt.RecentCap),
		slow:     NewSpanRing(opt.SlowCap),
		graph:    make(map[GraphKey]uint64),
		ts:       NewTimeSeries(opt.TimeSeriesLen),
		lastAnom: make(map[string]time.Time),
		cooldown: 10 * time.Second,
	}
	t.sampler.Set(fault.TraceHeadSample, 1/float64(opt.SampleEvery))
	t.estP99.Store(math.MaxInt64)
	return t
}

// SetMode switches the operating mode.
func (t *Tracer) SetMode(m Mode) { t.mode.Store(int32(m)) }

// Mode returns the current operating mode.
func (t *Tracer) Mode() Mode { return Mode(t.mode.Load()) }

// Seed returns the head-sampler seed (for reproducing a trace population).
func (t *Tracer) Seed() uint64 { return t.sampler.Seed() }

// RetryK returns the always-keep retry-chain threshold.
func (t *Tracer) RetryK() int { return t.opt.RetryK }

// SetRetryK adjusts the always-keep retry-chain threshold at runtime (tests
// and diagnostic sessions; not synchronized with in-flight requests, which
// read it once at End).
func (t *Tracer) SetRetryK(k int) {
	if k > 0 {
		t.opt.RetryK = k
	}
}

// EstP99 returns the rolling p99 latency estimate (an effectively infinite
// value until the first tick).
func (t *Tracer) EstP99() time.Duration { return time.Duration(t.estP99.Load()) }

// Requests returns the number of requests traced (Begin returned true).
func (t *Tracer) Requests() uint64 { return t.reqSeq.Load() }

// Kept returns the number of spans kept by any rule.
func (t *Tracer) Kept() uint64 { return t.spanSeq.Load() }

// SlowCaptured returns the number of pathological spans ever recorded into
// the flight recorder (including ones since overwritten).
func (t *Tracer) SlowCaptured() uint64 { return t.slowN.Load() }

// SlowlogLen returns the number of spans currently in the flight recorder.
func (t *Tracer) SlowlogLen() int { return t.slow.Len() }

// SlowlogDropped returns flight-recorder wrap losses.
func (t *Tracer) SlowlogDropped() uint64 { return t.slow.Dropped() }

// Slowlog snapshots the flight recorder, oldest first.
func (t *Tracer) Slowlog() []Span { return t.slow.Snapshot() }

// Recent snapshots the kept-span ring, oldest first.
func (t *Tracer) Recent() []Span { return t.recent.Snapshot() }

// TimeSeriesSeconds returns how many per-second samples are held.
func (t *Tracer) TimeSeriesSeconds() int { return t.ts.Len() }

// observeDur folds one request latency into the current second's histogram.
func (t *Tracer) observeDur(d time.Duration) { t.win.Record(uint64(d)) }

// updateP99 folds a fresh window p99 into the rolling estimate (EWMA). The
// first observation replaces the infinite sentinel outright.
func (t *Tracer) updateP99(winP99 time.Duration) {
	cur := t.estP99.Load()
	if cur == math.MaxInt64 {
		t.estP99.Store(int64(winP99))
		return
	}
	w := int64(t.opt.P99Decay)
	t.estP99.Store((cur*(100-w) + int64(winP99)*w) / 100)
}

// finish runs the keep decision for one completed request span. Called by
// ConnSpans.End with the connection's single-writer scratch state; everything
// copied out of cs here must be copied by value.
func (t *Tracer) finish(cs *ConnSpans, dur time.Duration) {
	seq := t.reqSeq.Add(1)
	// The head-sample coin is flipped for every traced request, pathological
	// or not, so the decision for request n is always a pure function of
	// (seed, n) — pathology changes what else is kept, never the coin.
	head := t.sampler.Fire(fault.TraceHeadSample)
	t.observeDur(dur)

	keep := ""
	pathological := false
	switch {
	case int(cs.maxRetry) >= t.opt.RetryK:
		keep, pathological = "retries", true
	case cs.serialized:
		keep, pathological = "serialized", true
	case int64(dur) > t.estP99.Load():
		keep, pathological = "slow", true
	case Mode(t.mode.Load()) == ModeFull:
		keep = "full"
	case head:
		keep = "head"
	}
	if keep == "" {
		return
	}

	sp := &Span{
		ID:         t.spanSeq.Add(1),
		Conn:       cs.conn,
		Seq:        seq,
		Cmd:        cs.cmd,
		Start:      cs.start.UnixNano(),
		DurNanos:   durNanos(dur),
		Aborts:     cs.aborts,
		MaxRetry:   cs.maxRetry,
		Serialized: cs.serialized,
		MaxReads:   cs.maxReads,
		MaxWrites:  cs.maxWrites,
		Keep:       keep,
		Truncated:  cs.truncated,
		Events:     append([]SpanEvent(nil), cs.events...),
	}
	t.recent.Record(sp)
	if pathological {
		t.slow.Record(sp)
		t.slowN.Add(1)
	}
	t.addGraphEdges(sp)
}

// addGraphEdges folds a kept span's abort events into the who-aborted-whom
// conflict graph. Anonymous owners are aggregated under "(unknown)" so the
// graph still shows the victim/label shape when owner tracking is cold.
func (t *Tracer) addGraphEdges(sp *Span) {
	t.graphMu.Lock()
	defer t.graphMu.Unlock()
	for i := range sp.Events {
		ev := &sp.Events[i]
		if ev.Kind != "abort" && ev.Kind != "abort_serial" {
			continue
		}
		owner := ev.Owner
		if owner == "" {
			owner = "(unknown)"
		}
		victim := ev.Site
		if victim == "" {
			victim = "(unlabeled)"
		}
		t.graph[GraphKey{Owner: owner, Victim: victim, Label: ev.Label}]++
	}
}

// Graph returns the conflict graph, heaviest edge first.
func (t *Tracer) Graph() []GraphEdge {
	t.graphMu.Lock()
	out := make([]GraphEdge, 0, len(t.graph))
	for k, n := range t.graph {
		out = append(out, GraphEdge{GraphKey: k, Count: n})
	}
	t.graphMu.Unlock()
	sortEdges(out)
	return out
}

// Anomalies returns the detector trips, oldest first.
func (t *Tracer) Anomalies() []Anomaly {
	t.anomMu.Lock()
	defer t.anomMu.Unlock()
	return append([]Anomaly(nil), t.anomalies...)
}

// Dumps returns the captured flight-recorder dumps, oldest first.
func (t *Tracer) Dumps() []Dump {
	t.anomMu.Lock()
	defer t.anomMu.Unlock()
	return append([]Dump(nil), t.dumps...)
}

// TriggerDump captures the flight recorder and conflict graph now. Used by
// the debug endpoint's dump=1 action; the anomaly detector calls the same
// capture on a trip.
func (t *Tracer) TriggerDump(reason string) Dump {
	d := Dump{
		When:   time.Now().UnixNano(),
		Reason: reason,
		Spans:  t.slow.Snapshot(),
		Graph:  t.Graph(),
	}
	t.anomMu.Lock()
	t.dumps = append(t.dumps, d)
	if len(t.dumps) > maxDumps {
		t.dumps = t.dumps[len(t.dumps)-maxDumps:]
	}
	t.anomMu.Unlock()
	return d
}

// noteAnomaly records a detector trip and auto-captures a dump, rate-limited
// per anomaly kind by the cooldown.
func (t *Tracer) noteAnomaly(kind, detail string, now time.Time) {
	t.anomMu.Lock()
	if last, ok := t.lastAnom[kind]; ok && now.Sub(last) < t.cooldown {
		t.anomMu.Unlock()
		return
	}
	t.lastAnom[kind] = now
	t.anomalies = append(t.anomalies, Anomaly{When: now.UnixNano(), Kind: kind, Detail: detail})
	if len(t.anomalies) > 64 {
		t.anomalies = t.anomalies[len(t.anomalies)-64:]
	}
	t.anomMu.Unlock()
	t.TriggerDump("anomaly: " + kind + " (" + detail + ")")
}

// Tick advances the per-second time series with the current cumulative
// counters, refreshes the p99 estimate from the window histogram, and runs
// the anomaly detector over the new sample. The engine's sampler goroutine
// calls it once per second while tracing is enabled.
func (t *Tracer) Tick(c Counters) {
	now := time.Now()
	w := t.win.Swap()
	winP99 := time.Duration(w.P99)
	if w.Count > 0 {
		t.updateP99(winP99)
	}
	c.Reqs = t.reqSeq.Load()
	c.Kept = t.spanSeq.Load()
	c.Slow = t.slowN.Load()
	sample, prevOK := t.ts.push(now.UnixNano(), c, int64(winP99))
	if !prevOK {
		return // first sample: no deltas to judge yet
	}
	for _, a := range t.ts.detect(sample) {
		t.noteAnomaly(a.Kind, a.Detail, now)
	}
}

// Reset clears everything `stats reset` owns: both span rings, the conflict
// graph, the time series, anomalies, dumps, and the window histogram. The
// mode, seed, sampler ordinals, and sequence counters survive — reset is a
// data clear, not a reconfiguration, and keeping the sampler's ordinal
// stream intact preserves the determinism contract across resets.
func (t *Tracer) Reset() {
	t.recent.reset()
	t.slow.reset()
	t.slowN.Store(0)
	t.graphMu.Lock()
	clear(t.graph)
	t.graphMu.Unlock()
	t.ts.reset()
	t.anomMu.Lock()
	t.anomalies = nil
	t.dumps = nil
	clear(t.lastAnom)
	t.anomMu.Unlock()
	t.win.Reset()
}

func sortEdges(es []GraphEdge) {
	sortSlice(es, func(a, b GraphEdge) bool {
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Victim < b.Victim
	})
}
