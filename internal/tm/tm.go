// Package tm is the single transaction entry point for this repository.
//
// Historically every layer grew its own run helper: core.Ctx.Atomic,
// core.Ctx.Relaxed, core.Ctx.RelaxedStartSerial, and raw stm.Thread.Run calls
// with hand-built Props scattered through engine, tmds and the tests. This
// package replaces them with two functions and a functional-options struct:
//
//	err := tm.Atomic(th, tm.With(tm.Label("item_get"), tm.ReadOnly()), func(tx *stm.Tx) { ... })
//	err := tm.Relaxed(th, tm.Options{}, func(tx *stm.Tx) { ... })
//
// Options are plain data, so hot call sites may build them once (or use the
// zero value) and skip the closure allocations of the variadic form. The old
// core.Ctx wrappers have been deleted; this package is the one blessed
// transaction API.
package tm

import (
	"repro/internal/stm"
)

// Options is the resolved option set for one transaction run. The zero value
// is a plain speculative transaction with no label.
type Options struct {
	// ReadOnly declares the body is not expected to write; orec-based
	// algorithms then attempt the read-only fast-path commit (zero orec
	// acquisitions, zero serial-lock traffic) and upgrade cleanly on the
	// first write barrier. A hint, never a contract.
	ReadOnly bool
	// StartSerial makes a relaxed transaction begin serial-irrevocable
	// instead of paying for instrumented execution up to the switch point.
	// Meaningless (and rejected by the runtime) for atomic transactions.
	StartSerial bool
	// TrySerial, with StartSerial, bounds the serial write-lock acquisition:
	// if the lock stays busy past a short spin the run returns
	// stm.ErrSerialBusy with no effects. The cross-shard commit path sets it
	// on every domain after the first so overlapping committers cannot
	// deadlock — the loser unwinds and retries in ascending shard order.
	TrySerial bool
	// Site labels the source-level transaction for conflict attribution and
	// serialization-cause profiling.
	Site string
	// MaxRetries bounds consecutive speculative aborts; past it the run
	// returns stm.ErrRetryLimit instead of escalating further. 0 = retry
	// forever (the libitm behaviour).
	MaxRetries int
}

// Option mutates an Options under construction.
type Option func(*Options)

// With builds an Options from opts.
func With(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// ReadOnly declares the transaction read-only (see Options.ReadOnly).
func ReadOnly() Option { return func(o *Options) { o.ReadOnly = true } }

// StartSerial makes a relaxed transaction begin serial (see
// Options.StartSerial).
func StartSerial() Option { return func(o *Options) { o.StartSerial = true } }

// TrySerial bounds the serial-lock acquisition of a StartSerial transaction
// (see Options.TrySerial).
func TrySerial() Option { return func(o *Options) { o.TrySerial = true } }

// Label names the transaction site (see Options.Site).
func Label(site string) Option { return func(o *Options) { o.Site = site } }

// MaxRetries bounds consecutive aborts (see Options.MaxRetries).
func MaxRetries(n int) Option { return func(o *Options) { o.MaxRetries = n } }

func (o Options) props(kind stm.Kind) stm.Props {
	return stm.Props{
		Kind:        kind,
		StartSerial: o.StartSerial,
		TrySerial:   o.TrySerial,
		Site:        o.Site,
		ReadOnly:    o.ReadOnly,
		MaxRetries:  o.MaxRetries,
	}
}

// Atomic runs fn as an atomic transaction on th: unsafe operations are
// forbidden (they panic with stm.ErrUnsafeInAtomic) and the transaction never
// serializes except for contention-management progress. Returns nil on
// commit, stm.ErrCanceled if fn canceled, stm.ErrRetryLimit if
// Options.MaxRetries was exhausted. Nested calls flatten into the enclosing
// transaction, as in GCC.
func Atomic(th *stm.Thread, o Options, fn func(*stm.Tx)) error {
	return th.Run(o.props(stm.Atomic), fn)
}

// Relaxed runs fn as a relaxed transaction on th: unsafe operations trigger
// the in-flight switch to serial-irrevocable execution. Return values are as
// for Atomic.
func Relaxed(th *stm.Thread, o Options, fn func(*stm.Tx)) error {
	return th.Run(o.props(stm.Relaxed), fn)
}

// LoadWord reads w in a mini atomic transaction (flattening into the current
// one if th is already inside a transaction).
func LoadWord(th *stm.Thread, w *stm.TWord) uint64 {
	var v uint64
	_ = Atomic(th, Options{ReadOnly: true}, func(tx *stm.Tx) { v = w.Load(tx) })
	return v
}

// StoreWord writes w in a mini atomic transaction.
func StoreWord(th *stm.Thread, w *stm.TWord, v uint64) {
	_ = Atomic(th, Options{}, func(tx *stm.Tx) { w.Store(tx, v) })
}

// AddWord adds delta to w in a mini atomic transaction and returns the new
// value.
func AddWord(th *stm.Thread, w *stm.TWord, delta uint64) uint64 {
	var v uint64
	_ = Atomic(th, Options{}, func(tx *stm.Tx) { v = w.Add(tx, delta) })
	return v
}

// SetTrace installs (nil: removes) a request-scoped trace sink on th: while
// set, every transaction run through th delivers its begin/abort/serialize/
// commit events to sink regardless of the aggregate observer's toggle. This
// is the single entry point the engine uses to thread request spans down into
// the runtime; it exists here (not on the caller's side of stm) so the
// tracing contract is part of the same API surface as Atomic/Relaxed.
func SetTrace(th *stm.Thread, sink stm.Consumer) { th.SetTrace(sink) }
