package stm

import (
	"runtime"
	"strings"
	"testing"
)

// TestAccessorsAndStringers covers the small exported surface: per-thread
// counters, kind names, table formatting, and the direct accessors the
// engine's privatized paths rely on.
func TestAccessorsAndStringers(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	w := NewTWord(0)
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		if tx.Kind() != Atomic {
			t.Error("Kind")
		}
		if tx.Thread() != th {
			t.Error("Thread")
		}
		if th.Current() != tx {
			t.Error("Current")
		}
		w.Store(tx, 1)
	})
	if th.Current() != nil {
		t.Error("Current after commit")
	}
	if th.Commits() != 1 || th.Aborts() != 0 {
		t.Errorf("thread counters = %d/%d", th.Commits(), th.Aborts())
	}
	if th.Runtime() != rt {
		t.Error("Runtime")
	}
	if Atomic.String() != "atomic" || Relaxed.String() != "relaxed" {
		t.Error("Kind names")
	}
	if Algorithm(99).String() == "mlwt" || ContentionManager(99).String() == "none" {
		t.Error("out-of-range names mapped")
	}
	if !strings.Contains(Algorithm(99).String(), "Algorithm") {
		t.Error("unknown algorithm formatting")
	}
}

func TestDirectAccessors(t *testing.T) {
	w := NewTWord(1)
	w.StoreDirect(5)
	if w.LoadDirect() != 5 {
		t.Error("TWord StoreDirect")
	}
	a := NewTAny("x")
	a.StoreDirect("y")
	if a.LoadDirect() != "y" {
		t.Error("TAny StoreDirect")
	}
	tb := NewTBytes(16)
	tb.SetWordDirect(1, 0xDEADBEEF)
	if tb.WordDirect(1) != 0xDEADBEEF {
		t.Error("TBytes word direct")
	}
	tb.WriteAllDirect([]byte("abc"))
	if got := string(tb.Bytes()[:3]); got != "abc" {
		t.Errorf("WriteAllDirect = %q", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WriteAllDirect over-length did not panic")
			}
		}()
		tb.WriteAllDirect(make([]byte, 17))
	}()
}

func TestSnapshotFormatting(t *testing.T) {
	s := Snapshot{Commits: 100, InFlightSwitch: 10, StartSerial: 20, AbortSerial: 3,
		Aborts: 50, ThreadCommits: []uint64{40, 60}, ThreadAborts: []uint64{10, 40}}
	row := s.TableRow("test-branch")
	for _, want := range []string{"test-branch", "100", "10 (10.0%)", "20 (20.0%)", "3"} {
		if !strings.Contains(row, want) {
			t.Errorf("TableRow %q missing %q", row, want)
		}
	}
	if got := s.AbortsPerCommit(); got != 0.5 {
		t.Errorf("AbortsPerCommit = %v", got)
	}
	if v := s.AbortRateVariance(); v <= 0 {
		t.Errorf("variance = %v, want > 0 for skewed threads", v)
	}
	var empty Snapshot
	if empty.AbortsPerCommit() != 0 || empty.AbortRateVariance() != 0 {
		t.Error("empty snapshot ratios non-zero")
	}
	zeroRow := Snapshot{}.TableRow("z")
	if !strings.Contains(zeroRow, "z") {
		t.Errorf("zero TableRow = %q", zeroRow)
	}
}

func TestProfileStringFormat(t *testing.T) {
	rt := New(Config{})
	rt.EnableTracing()
	th := rt.NewThread()
	_ = th.Run(Props{Kind: Relaxed, Site: "spot"}, func(tx *Tx) { tx.Unsafe("op") })
	out := rt.TracingObserver().Report(0).String()
	if !strings.Contains(out, "serialization causes:") || !strings.Contains(out, "op @ spot") {
		t.Errorf("profile report = %q", out)
	}
}

// TestNOrecReaderRevalidation drives the NOrec mid-read revalidation path: a
// writer commits between a reader's begin and a later load, forcing the
// reader to re-snapshot (not abort) when its prior reads still hold.
func TestNOrecReaderRevalidation(t *testing.T) {
	rt := New(Config{Algorithm: NOrec})
	a, b := NewTWord(1), NewTWord(2)
	unrelated := NewTWord(0)
	th := rt.NewThread()
	attempts := 0
	done := make(chan struct{})
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		attempts++
		_ = a.Load(tx)
		if attempts == 1 {
			go func() {
				defer close(done)
				wth := rt.NewThread()
				// Writes an UNRELATED location: bumps the global sequence
				// without invalidating the reader's value-based read set.
				// Do NOT wait for its Run to return here — the writer
				// quiesces on this reader (privatization safety); its
				// publication is observable via the direct read below.
				_ = wth.Run(Props{Kind: Atomic}, func(wtx *Tx) {
					unrelated.Store(wtx, 1)
				})
			}()
			for unrelated.LoadDirect() != 1 {
				runtime.Gosched()
			}
			for i := 0; i < 200; i++ {
				runtime.Gosched() // grace for the sequence release
			}
		}
		_ = b.Load(tx) // must revalidate and proceed, not abort
	})
	<-done
	if attempts != 1 {
		t.Errorf("attempts = %d; value-based revalidation should avoid the abort", attempts)
	}
}
