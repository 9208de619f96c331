package txobs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KBegin is a transaction attempt beginning (speculative or serial).
	KBegin Kind = iota
	// KCommit is a successful commit of a source-level transaction.
	KCommit
	// KAbort is an aborted speculative attempt.
	KAbort
	// KInFlightSwitch is a relaxed transaction hitting an unsafe operation and
	// restarting serial-irrevocable (§3's dominant serialization cause).
	KInFlightSwitch
	// KStartSerial is a transaction that began in serial mode.
	KStartSerial
	// KAbortSerial is a transaction serialized for progress after the
	// contention manager's consecutive-abort limit.
	KAbortSerial
	// KHTMFallback is an emulated hardware transaction taking the lock
	// fallback after its retry budget.
	KHTMFallback
	// KWatchdogBackoff and KWatchdogSerialize are starvation-watchdog
	// escalations.
	KWatchdogBackoff
	KWatchdogSerialize
	// KRetryWait is a condition-synchronization retry blocking on its read set.
	KRetryWait
	// KROFastCommit is a read-only transaction committing on the fast path:
	// read-set revalidation against the global timestamp, zero orec
	// acquisitions and zero serial-lock traffic.
	KROFastCommit
	// KROUpgrade is a read-only attempt reaching a write barrier and
	// restarting cleanly on the normal (writer-capable) path.
	KROUpgrade

	kindN
)

var kindNames = [kindN]string{
	"begin", "commit", "abort", "inflight_switch", "start_serial",
	"abort_serial", "htm_fallback", "watchdog_backoff", "watchdog_serialize",
	"retry_wait", "ro_fast_commit", "ro_upgrade",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// serializes reports whether the event kind is a serialization event (the
// category the paper's Tables 1-4 break down).
func (k Kind) serializes() bool {
	switch k {
	case KInFlightSwitch, KStartSerial, KAbortSerial, KHTMFallback,
		KWatchdogBackoff, KWatchdogSerialize:
		return true
	}
	return false
}

// Event is one recorded transaction event. Events are immutable once recorded
// (the ring stores pointers to fully built events).
type Event struct {
	Seq    uint64 // global order across all rings
	When   int64  // UnixNano
	Thread int32  // recording sink id (-1 = runtime-global, e.g. watchdog)
	Kind   Kind
	Serial bool   // the attempt was serial-irrevocable
	Retry  uint32 // consecutive-abort ordinal of the source transaction
	Reads  uint32 // read-set size at event time
	Writes uint32 // write-set size at event time
	Orec   int32  // conflicting orec index, -1 = none/unknown
	Shard  int32  // TM domain (shard) the event came from; 0 when unsharded
	Label  Label  // label of the conflicting location (NoLabel = unnamed)
	Cause  string // serialization/abort cause, "" for begin/commit
	Site   string // source-level transaction site (Props.Site)
	Owner  string // site label of the last traced writer of the conflicting orec, "" = unknown
}

// Ring is a lock-free ring buffer of events. Writers reserve a slot with one
// atomic add and publish the event with one atomic pointer store; readers
// snapshot without blocking writers. Multiple writers are safe (the per-thread
// rings of the runtime happen to have one writer each, but the watchdog and
// tests share rings).
type Ring struct {
	slots   []atomic.Pointer[Event]
	mask    uint64
	head    atomic.Uint64 // number of events ever recorded into this ring
	dropped atomic.Uint64 // events that overwrote an unread slot (ring wrapped)
}

// NewRing creates a ring holding capacity events, rounded up to a power of
// two (minimum 8).
func NewRing(capacity int) *Ring {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Event], c), mask: uint64(c - 1)}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded returns the number of events ever recorded (recorded - Cap is the
// worst-case number overwritten).
func (r *Ring) Recorded() uint64 { return r.head.Load() }

// Record stores ev, overwriting the oldest slot when full. An overwrite is
// counted in dropped so scrapers can tell a quiet ring from a wrapped one:
// the event in the slot keeps its own (correct) shard/thread attribution, the
// counter owns the loss.
func (r *Ring) Record(ev *Event) {
	i := r.head.Add(1) - 1
	if i >= uint64(len(r.slots)) {
		r.dropped.Add(1)
	}
	r.slots[i&r.mask].Store(ev)
}

// Dropped returns the number of events overwritten before any reader could
// have seen them (0 until the ring wraps).
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }

// reset empties the ring: slots nil'd, head and dropped rewound, so events
// recorded after a stats reset are not misreported as wrap losses.
func (r *Ring) reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
	r.head.Store(0)
	r.dropped.Store(0)
}

// Snapshot returns the events currently held, oldest first. Concurrent
// writers may overwrite slots during the scan; every returned event is
// nonetheless complete and self-consistent.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Sink is a handle through which one thread records events into its ring and
// the shared aggregates. It is the aggregate consumer of the STM's event
// stream (the request tracer's txtrace.ConnSpans is the other); both
// implement the runtime's one-method consumer interface, TraceTx.
type Sink struct {
	obs  *Observer
	ring *Ring
	id   int32
}

// Ring returns the sink's ring (for tests and diagnostics).
func (s *Sink) Ring() *Ring { return s.ring }

// TraceTx timestamps, sequences, and records ev, updating the observer's
// aggregates (kind counters, cause map, conflict heat map). The sink takes
// ownership: ev must not be reused by the caller afterwards. No-op while the
// observer is disabled.
func (s *Sink) TraceTx(ev *Event) {
	o := s.obs
	if !o.enabled.Load() {
		return
	}
	ev.Seq = o.seq.Add(1)
	ev.When = time.Now().UnixNano()
	ev.Thread = s.id
	o.aggregate(ev)
	s.ring.Record(ev)
}

// Phase identifies an STM latency phase.
type Phase uint8

const (
	// PhaseFirstAbort measures source-transaction entry to its first abort.
	PhaseFirstAbort Phase = iota
	// PhaseBackoff measures one contention-manager backoff wait.
	PhaseBackoff
	// PhaseSerialWait measures waiting to acquire the serial lock's write side.
	PhaseSerialWait
	// PhaseCommit measures a successful commit's validation+publish protocol.
	PhaseCommit

	phaseN
)

var phaseNames = [phaseN]string{"first_abort", "backoff", "serial_wait", "commit"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}
