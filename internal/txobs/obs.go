package txobs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loghist"
)

// Options parameterizes an Observer.
type Options struct {
	// Orecs sizes the per-orec conflict heat map (the runtime's orec-table
	// size). 0 disables orec-level aggregation (labels still work). For a
	// sharded engine this is the sum of every shard's orec-table size: each
	// shard's runtime records events with a disjoint orec base offset, so one
	// observer covers all domains without index collisions.
	Orecs int
	// Shards is the number of TM domains feeding this observer. >1 enables
	// the per-shard conflict-label heat map and the cross-shard consistency
	// check on the orec heat map. 0 and 1 mean a single (unsharded) domain.
	Shards int
	// RingCapacity is the per-sink event ring size (default 4096).
	RingCapacity int
}

// heatCell is one orec's aggregate: abort count plus the label of the last
// conflicting location that hashed there (label+1; 0 = none seen), plus the
// owning shard (shard+1; 0 = none seen). Since sharded runtimes record with
// disjoint orec bases, a cell seeing two different shards is a bug — counted
// in crossShard, asserted zero by the bench harness.
type heatCell struct {
	n     atomic.Uint64
	last  atomic.Uint32
	shard atomic.Int32
}

// shardCells is one shard's conflict-by-label heat map.
type shardCells struct {
	aborts [MaxLabels]atomic.Uint64
}

// Observer owns the aggregation state of the observability layer: per-kind
// event counters, the conflict heat map, serialization/abort cause maps, and
// the phase and command latency histograms. One Observer serves one cache
// (runtime); it persists across Enable/Disable so collected data survives
// turning tracing off.
type Observer struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	ringCap int

	kinds [kindN]atomic.Uint64

	orecHeat      []heatCell
	labelAborts   [MaxLabels]atomic.Uint64
	serialByLabel [MaxLabels]atomic.Uint64

	// Shard dimension (sharded engines): per-shard conflict labels and the
	// count of orec heat cells that saw events from more than one shard.
	shardHeat  []shardCells
	crossShard atomic.Uint64

	causeMu      sync.Mutex
	serialCauses map[string]uint64
	abortCauses  map[string]uint64

	phases [phaseN]loghist.Histogram
	cmds   sync.Map // command name -> *loghist.Histogram

	mu     sync.Mutex
	sinks  []*Sink
	global *Sink
}

// New creates a disabled Observer.
func New(opts Options) *Observer {
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = 4096
	}
	o := &Observer{
		ringCap:      opts.RingCapacity,
		serialCauses: make(map[string]uint64),
		abortCauses:  make(map[string]uint64),
	}
	if opts.Orecs > 0 {
		o.orecHeat = make([]heatCell, opts.Orecs)
	}
	if opts.Shards > 1 {
		o.shardHeat = make([]shardCells, opts.Shards)
	}
	o.global = &Sink{obs: o, ring: NewRing(opts.RingCapacity), id: -1}
	return o
}

// Enable turns event recording on.
func (o *Observer) Enable() { o.enabled.Store(true) }

// Disable turns event recording off; collected data is retained.
func (o *Observer) Disable() { o.enabled.Store(false) }

// Enabled reports whether events are being recorded.
func (o *Observer) Enabled() bool { return o.enabled.Load() }

// NewSink registers a new per-thread recording sink with its own event ring.
func (o *Observer) NewSink() *Sink {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &Sink{obs: o, ring: NewRing(o.ringCap), id: int32(len(o.sinks))}
	o.sinks = append(o.sinks, s)
	return s
}

// Record records a runtime-global event (watchdog escalations and other
// events without a thread context). No-op while disabled.
func (o *Observer) Record(ev *Event) { o.global.TraceTx(ev) }

// aggregate folds one recorded event into the counters, cause maps, and the
// conflict heat map. Called from Sink.TraceTx (enabled path only).
func (o *Observer) aggregate(ev *Event) {
	o.kinds[ev.Kind].Add(1)
	switch {
	case ev.Kind == KAbort:
		if ev.Orec >= 0 && int(ev.Orec) < len(o.orecHeat) {
			c := &o.orecHeat[ev.Orec]
			c.n.Add(1)
			c.last.Store(uint32(ev.Label) + 1)
			owner := ev.Shard + 1
			if prev := c.shard.Load(); prev == 0 {
				c.shard.CompareAndSwap(0, owner)
			} else if prev != owner {
				o.crossShard.Add(1)
			}
		}
		if int(ev.Label) < MaxLabels {
			o.labelAborts[ev.Label].Add(1)
		}
		if int(ev.Shard) < len(o.shardHeat) && int(ev.Label) < MaxLabels {
			o.shardHeat[ev.Shard].aborts[ev.Label].Add(1)
		}
		if ev.Cause != "" {
			o.addCause(&o.abortCauses, ev.Cause)
		}
	case ev.Kind == KAbortSerial:
		if int(ev.Label) < MaxLabels {
			o.serialByLabel[ev.Label].Add(1)
		}
		if ev.Cause != "" {
			o.addCause(&o.serialCauses, ev.Cause)
		}
	case ev.Kind.serializes():
		if ev.Cause != "" {
			o.addCause(&o.serialCauses, ev.Cause)
		}
	}
}

func (o *Observer) addCause(m *map[string]uint64, cause string) {
	o.causeMu.Lock()
	(*m)[cause]++
	o.causeMu.Unlock()
}

// KindCount returns the number of events of kind k recorded.
func (o *Observer) KindCount(k Kind) uint64 { return o.kinds[k].Load() }

// CrossShardOrecConflicts returns how many conflict events landed on an orec
// heat cell already owned by a different shard. With disjoint per-shard orec
// bases this must stay zero; nonzero means two TM domains shared a
// synchronization word.
func (o *Observer) CrossShardOrecConflicts() uint64 { return o.crossShard.Load() }

// NumShards returns the shard count the observer was built for (1 when
// unsharded).
func (o *Observer) NumShards() int {
	if len(o.shardHeat) == 0 {
		return 1
	}
	return len(o.shardHeat)
}

// ObservePhase records one STM phase latency.
func (o *Observer) ObservePhase(p Phase, d time.Duration) {
	if !o.enabled.Load() {
		return
	}
	o.phases[p].Record(nanos(d))
}

// ObserveCommand records one server-command latency.
func (o *Observer) ObserveCommand(cmd string, d time.Duration) {
	if !o.enabled.Load() {
		return
	}
	h, ok := o.cmds.Load(cmd)
	if !ok {
		h, _ = o.cmds.LoadOrStore(cmd, &loghist.Histogram{})
	}
	h.(*loghist.Histogram).Record(nanos(d))
}

// nanos converts a duration for recording; a negative duration (a clock
// step) records as zero.
func nanos(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// SerialCauses returns the serialization causes, most frequent first (ties
// broken by cause name): the §6 attribution of what forced transactions to
// run serial-irrevocably.
func (o *Observer) SerialCauses() []CauseCount {
	o.causeMu.Lock()
	out := make([]CauseCount, 0, len(o.serialCauses))
	for c, n := range o.serialCauses {
		out = append(out, CauseCount{Cause: c, Count: n})
	}
	o.causeMu.Unlock()
	sortCauses(out)
	return out
}

// SerialAttribution returns how many abort-serial events carried a named
// label versus the total recorded — the attribution rate of the conflict
// heat map.
func (o *Observer) SerialAttribution() (named, total uint64) {
	for i := range o.serialByLabel {
		n := o.serialByLabel[i].Load()
		total += n
		if i != int(NoLabel) {
			named += n
		}
	}
	return named, total
}

// Events merges every ring's current contents, oldest first.
func (o *Observer) Events() []Event {
	o.mu.Lock()
	sinks := append([]*Sink(nil), o.sinks...)
	o.mu.Unlock()
	sinks = append(sinks, o.global)
	var out []Event
	for _, s := range sinks {
		out = append(out, s.ring.Snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset zeroes every resettable aggregate: kind counters, heat map, cause
// maps, histograms, and the ring contents. The event sequence keeps counting
// so post-reset events still order after pre-reset ones.
func (o *Observer) Reset() {
	for i := range o.kinds {
		o.kinds[i].Store(0)
	}
	for i := range o.orecHeat {
		o.orecHeat[i].n.Store(0)
		o.orecHeat[i].last.Store(0)
		o.orecHeat[i].shard.Store(0)
	}
	for i := range o.labelAborts {
		o.labelAborts[i].Store(0)
		o.serialByLabel[i].Store(0)
	}
	for s := range o.shardHeat {
		for i := range o.shardHeat[s].aborts {
			o.shardHeat[s].aborts[i].Store(0)
		}
	}
	o.crossShard.Store(0)
	o.causeMu.Lock()
	clear(o.serialCauses)
	clear(o.abortCauses)
	o.causeMu.Unlock()
	for i := range o.phases {
		o.phases[i].Reset()
	}
	o.cmds.Range(func(_, v any) bool {
		v.(*loghist.Histogram).Reset()
		return true
	})
	o.mu.Lock()
	sinks := append([]*Sink(nil), o.sinks...)
	o.mu.Unlock()
	sinks = append(sinks, o.global)
	for _, s := range sinks {
		s.ring.reset()
	}
}

// RingDropped sums the wrap-loss counters of every ring: events overwritten
// before a reader could have snapshotted them. Exported as the ring_dropped
// gauge on the debug surfaces.
func (o *Observer) RingDropped() uint64 {
	o.mu.Lock()
	sinks := append([]*Sink(nil), o.sinks...)
	o.mu.Unlock()
	sinks = append(sinks, o.global)
	var n uint64
	for _, s := range sinks {
		n += s.ring.Dropped()
	}
	return n
}

// ---------------------------------------------------------------------------
// Reporting

// CauseCount is one attributed cause.
type CauseCount struct {
	Cause string `json:"cause"`
	Count uint64 `json:"count"`
}

// LabelCount is one label's aggregate.
type LabelCount struct {
	Label string `json:"label"`
	Count uint64 `json:"count"`
}

// OrecCount is one hot ownership record.
type OrecCount struct {
	Orec      int    `json:"orec"`
	Count     uint64 `json:"count"`
	LastLabel string `json:"last_label"`
	// Shard is the TM domain whose conflicts heated this orec (-1 = none
	// attributed yet). Disjoint per-shard orec bases make this single-valued.
	Shard int `json:"shard"`
}

// Report is a point-in-time structured view of everything the observer has
// collected; it marshals directly to JSON for the debug endpoint.
type Report struct {
	Enabled        bool              `json:"enabled"`
	Events         uint64            `json:"events"`
	Kinds          map[string]uint64 `json:"kinds"`
	SerialCauses   []CauseCount      `json:"serial_causes"`
	AbortCauses    []CauseCount      `json:"abort_causes"`
	ConflictLabels []LabelCount      `json:"conflict_labels"`
	SerialLabels   []LabelCount      `json:"serial_labels"`
	HotOrecs       []OrecCount       `json:"hot_orecs"`
	// Shards is the TM domain count; ShardConflicts is the conflict heat map
	// with the shard dimension ("s2/hash_bucket"), only populated when the
	// observer serves more than one shard. CrossShardOrecConflicts counts
	// conflicts whose orec heat cell was owned by another shard — zero by
	// construction when the domains are independent.
	Shards                  int                         `json:"shards,omitempty"`
	ShardConflicts          []LabelCount                `json:"shard_conflicts,omitempty"`
	CrossShardOrecConflicts uint64                      `json:"cross_shard_orec_conflicts"`
	Phases                  map[string]loghist.Snapshot `json:"phases"`
	Commands                map[string]loghist.Snapshot `json:"commands"`
}

func sortCauses(cs []CauseCount) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Count != cs[j].Count {
			return cs[i].Count > cs[j].Count
		}
		return cs[i].Cause < cs[j].Cause
	})
}

func sortLabels(ls []LabelCount) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Count != ls[j].Count {
			return ls[i].Count > ls[j].Count
		}
		return ls[i].Label < ls[j].Label
	})
}

// Report builds a Report, keeping the topOrecs hottest ownership records
// (0 = all non-zero).
func (o *Observer) Report(topOrecs int) Report {
	r := Report{
		Enabled:  o.enabled.Load(),
		Events:   o.seq.Load(),
		Kinds:    make(map[string]uint64, kindN),
		Phases:   make(map[string]loghist.Snapshot, phaseN),
		Commands: make(map[string]loghist.Snapshot),
	}
	for k := Kind(0); k < kindN; k++ {
		if n := o.kinds[k].Load(); n > 0 {
			r.Kinds[k.String()] = n
		}
	}
	r.SerialCauses = o.SerialCauses()
	o.causeMu.Lock()
	for c, n := range o.abortCauses {
		r.AbortCauses = append(r.AbortCauses, CauseCount{Cause: c, Count: n})
	}
	o.causeMu.Unlock()
	sortCauses(r.AbortCauses)
	for i := 0; i < NumLabels(); i++ {
		if n := o.labelAborts[i].Load(); n > 0 {
			r.ConflictLabels = append(r.ConflictLabels, LabelCount{Label: Label(i).String(), Count: n})
		}
		if n := o.serialByLabel[i].Load(); n > 0 {
			r.SerialLabels = append(r.SerialLabels, LabelCount{Label: Label(i).String(), Count: n})
		}
	}
	sortLabels(r.ConflictLabels)
	sortLabels(r.SerialLabels)
	for i := range o.orecHeat {
		if n := o.orecHeat[i].n.Load(); n > 0 {
			lc := "(unlabeled)"
			if l := o.orecHeat[i].last.Load(); l > 0 {
				lc = Label(l - 1).String()
			}
			r.HotOrecs = append(r.HotOrecs, OrecCount{
				Orec: i, Count: n, LastLabel: lc,
				Shard: int(o.orecHeat[i].shard.Load()) - 1,
			})
		}
	}
	if len(o.shardHeat) > 0 {
		r.Shards = len(o.shardHeat)
		for s := range o.shardHeat {
			for i := 0; i < NumLabels(); i++ {
				if n := o.shardHeat[s].aborts[i].Load(); n > 0 {
					r.ShardConflicts = append(r.ShardConflicts,
						LabelCount{Label: fmt.Sprintf("s%d/%s", s, Label(i)), Count: n})
				}
			}
		}
		sortLabels(r.ShardConflicts)
	}
	r.CrossShardOrecConflicts = o.crossShard.Load()
	sort.Slice(r.HotOrecs, func(i, j int) bool {
		if r.HotOrecs[i].Count != r.HotOrecs[j].Count {
			return r.HotOrecs[i].Count > r.HotOrecs[j].Count
		}
		return r.HotOrecs[i].Orec < r.HotOrecs[j].Orec
	})
	if topOrecs > 0 && len(r.HotOrecs) > topOrecs {
		r.HotOrecs = r.HotOrecs[:topOrecs]
	}
	for p := Phase(0); p < phaseN; p++ {
		if s := o.phases[p].Snapshot(); s.Count > 0 {
			r.Phases[p.String()] = s
		}
	}
	o.cmds.Range(func(k, v any) bool {
		if s := v.(*loghist.Histogram).Snapshot(); s.Count > 0 {
			r.Commands[k.(string)] = s
		}
		return true
	})
	return r
}

// String renders the report as a human-readable summary (mcbench -profile,
// make profile, mctrace replay).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tx observability report (%d events):\n", r.Events)
	if len(r.Kinds) > 0 {
		b.WriteString("  event counts:\n")
		for _, k := range sortedKeys(r.Kinds) {
			fmt.Fprintf(&b, "    %10d  %s\n", r.Kinds[k], k)
		}
	}
	if len(r.SerialCauses) > 0 {
		b.WriteString("  serialization causes:\n")
		for _, c := range r.SerialCauses {
			fmt.Fprintf(&b, "    %10d  %s\n", c.Count, c.Cause)
		}
	}
	if len(r.AbortCauses) > 0 {
		b.WriteString("  abort causes:\n")
		for _, c := range r.AbortCauses {
			fmt.Fprintf(&b, "    %10d  %s\n", c.Count, c.Cause)
		}
	}
	if len(r.ConflictLabels) > 0 {
		b.WriteString("  conflict heat by structure:\n")
		for _, l := range r.ConflictLabels {
			fmt.Fprintf(&b, "    %10d  %s\n", l.Count, l.Label)
		}
	}
	if len(r.SerialLabels) > 0 {
		b.WriteString("  abort-serial by structure:\n")
		for _, l := range r.SerialLabels {
			fmt.Fprintf(&b, "    %10d  %s\n", l.Count, l.Label)
		}
	}
	if r.Shards > 1 {
		fmt.Fprintf(&b, "  shard domains: %d (cross-shard orec conflicts: %d)\n",
			r.Shards, r.CrossShardOrecConflicts)
		if len(r.ShardConflicts) > 0 {
			b.WriteString("  conflict heat by shard/structure:\n")
			for _, l := range r.ShardConflicts {
				fmt.Fprintf(&b, "    %10d  %s\n", l.Count, l.Label)
			}
		}
	}
	if len(r.HotOrecs) > 0 {
		b.WriteString("  hottest orecs:\n")
		for _, oc := range r.HotOrecs {
			fmt.Fprintf(&b, "    %10d  orec %-8d (%s)\n", oc.Count, oc.Orec, oc.LastLabel)
		}
	}
	if len(r.Phases) > 0 {
		b.WriteString("  phase latency:\n")
		for _, p := range sortedKeys(r.Phases) {
			fmt.Fprintf(&b, "    %-12s %s\n", p, durSummary(r.Phases[p]))
		}
	}
	if len(r.Commands) > 0 {
		b.WriteString("  command latency:\n")
		for _, c := range sortedKeys(r.Commands) {
			fmt.Fprintf(&b, "    %-12s %s\n", c, durSummary(r.Commands[c]))
		}
	}
	return b.String()
}

// durSummary renders a nanosecond histogram as a one-line summary.
func durSummary(s loghist.Snapshot) string {
	d := func(ns uint64) time.Duration { return time.Duration(ns) }
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v mean=%v",
		s.Count, d(s.P50), d(s.P95), d(s.P99), d(s.Max), d(s.Mean))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the report in the Prometheus text exposition
// format. Every metric is prefixed "tm_".
func (r Report) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE tm_tracing_enabled gauge\ntm_tracing_enabled %d\n", b2i(r.Enabled))
	fmt.Fprintf(w, "# TYPE tm_events_total counter\n")
	for _, k := range sortedKeys(r.Kinds) {
		fmt.Fprintf(w, "tm_events_total{kind=%q} %d\n", k, r.Kinds[k])
	}
	fmt.Fprintf(w, "# TYPE tm_serializations_total counter\n")
	for _, c := range r.SerialCauses {
		fmt.Fprintf(w, "tm_serializations_total{cause=%q} %d\n", c.Cause, c.Count)
	}
	fmt.Fprintf(w, "# TYPE tm_conflicts_total counter\n")
	for _, l := range r.ConflictLabels {
		fmt.Fprintf(w, "tm_conflicts_total{structure=%q} %d\n", l.Label, l.Count)
	}
	fmt.Fprintf(w, "# TYPE tm_abort_serial_total counter\n")
	for _, l := range r.SerialLabels {
		fmt.Fprintf(w, "tm_abort_serial_total{structure=%q} %d\n", l.Label, l.Count)
	}
	if r.Shards > 1 {
		fmt.Fprintf(w, "# TYPE tm_shard_conflicts_total counter\n")
		for _, l := range r.ShardConflicts {
			if s, structure, ok := strings.Cut(l.Label, "/"); ok {
				fmt.Fprintf(w, "tm_shard_conflicts_total{shard=%q,structure=%q} %d\n", s, structure, l.Count)
			}
		}
		fmt.Fprintf(w, "# TYPE tm_cross_shard_orec_conflicts gauge\ntm_cross_shard_orec_conflicts %d\n",
			r.CrossShardOrecConflicts)
	}
	writePromHist := func(name, labelKey string, hists map[string]loghist.Snapshot) {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for _, k := range sortedKeys(hists) {
			h := hists[k]
			var cum uint64
			for b, n := range h.Buckets {
				if n == 0 {
					continue
				}
				cum += n
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
					name, labelKey, k, fmt.Sprintf("%g", float64(loghist.UpperBound(b))/1e9), cum)
			}
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, k, h.Count)
			fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, labelKey, k, float64(h.Sum)/1e9)
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, k, h.Count)
		}
	}
	writePromHist("tm_phase_latency_seconds", "phase", r.Phases)
	writePromHist("tm_command_latency_seconds", "command", r.Commands)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
