package txtrace

import (
	"time"

	"repro/internal/txobs"
)

// ConnSpans is the per-connection span buffer: a single-writer scratch the
// protocol layer drives (Begin before dispatch, End after) and the STM
// runtime feeds through its event-consumer interface while the request's
// worker thread carries the hook. One goroutine serves one connection, so no
// field needs synchronization — the lock-freedom the tentpole asks for is
// the absence of any lock, not atomics: the only shared word on the request
// path is the tracer's mode, read once in Begin.
//
// The scratch (events slice included) is reused across requests; a kept
// span's events are copied out at End, so nothing a consumer sees aliases
// the live buffer.
type ConnSpans struct {
	tr   *Tracer
	conn uint64

	active    bool
	cmd       string
	start     time.Time
	events    []SpanEvent
	truncated int

	aborts     uint32
	maxRetry   uint32
	serialized bool
	maxReads   uint32
	maxWrites  uint32
}

// NewConnSpans binds a span buffer to tracer tr for connection connID. A nil
// tracer is legal and makes Begin always return false.
func NewConnSpans(tr *Tracer, connID uint64) *ConnSpans {
	return &ConnSpans{tr: tr, conn: connID}
}

// Begin opens a request span for cmd. It returns false — after exactly one
// atomic load — when tracing is off; the caller then skips End and never
// installs the STM hook, leaving the request on the untraced fast path.
func (cs *ConnSpans) Begin(cmd string) bool {
	if cs == nil || cs.tr == nil || Mode(cs.tr.mode.Load()) == ModeOff {
		return false
	}
	cs.active = true
	cs.cmd = cmd
	cs.start = time.Now()
	cs.events = cs.events[:0]
	cs.truncated = 0
	cs.aborts = 0
	cs.maxRetry = 0
	cs.serialized = false
	cs.maxReads = 0
	cs.maxWrites = 0
	return true
}

// serializingKind mirrors txobs.Kind.serializes over the flattened names.
func serializingKind(k txobs.Kind) bool {
	switch k {
	case txobs.KInFlightSwitch, txobs.KStartSerial, txobs.KAbortSerial,
		txobs.KHTMFallback, txobs.KWatchdogBackoff, txobs.KWatchdogSerialize:
		return true
	}
	return false
}

// TraceTx implements stm.Consumer: it copies ev into the span scratch and
// folds it into the running pathology summary. Called synchronously on the
// request's own goroutine from inside the STM run loop.
func (cs *ConnSpans) TraceTx(ev *txobs.Event) {
	if !cs.active {
		return
	}
	switch ev.Kind {
	case txobs.KAbort:
		cs.aborts++
	case txobs.KAbortSerial:
		cs.aborts++
	}
	if ev.Retry > cs.maxRetry {
		cs.maxRetry = ev.Retry
	}
	if serializingKind(ev.Kind) || ev.Serial {
		cs.serialized = true
	}
	if ev.Reads > cs.maxReads {
		cs.maxReads = ev.Reads
	}
	if ev.Writes > cs.maxWrites {
		cs.maxWrites = ev.Writes
	}
	if len(cs.events) >= cs.tr.opt.MaxEventsPerSpan {
		cs.truncated++
		return
	}
	cs.events = append(cs.events, SpanEvent{
		OffNanos: durNanos(time.Since(cs.start)),
		Kind:     ev.Kind.String(),
		Site:     ev.Site,
		Cause:    ev.Cause,
		Owner:    ev.Owner,
		Label:    labelName(ev.Label, ev.Orec),
		Orec:     ev.Orec,
		Shard:    ev.Shard,
		Retry:    ev.Retry,
		Serial:   ev.Serial,
		Reads:    ev.Reads,
		Writes:   ev.Writes,
	})
}

// labelName renders a conflicting location's label; "" when the event has no
// conflicting orec at all.
func labelName(l txobs.Label, orec int32) string {
	if orec < 0 {
		return ""
	}
	return l.String()
}

// End closes the request span and hands it to the tracer's keep decision.
// Must be called exactly once per successful Begin, after the STM hook has
// been removed.
func (cs *ConnSpans) End() {
	if cs == nil || !cs.active {
		return
	}
	cs.active = false
	cs.tr.finish(cs, time.Since(cs.start))
}
