package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryWakesOnWrite(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec, HTM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			flag := NewTWord(0)
			payload := NewTWord(0)
			var got uint64
			var woke atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				th := rt.NewThread()
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					if flag.Load(tx) == 0 {
						tx.Retry()
					}
					got = payload.Load(tx)
				})
				woke.Store(true)
			}()
			time.Sleep(20 * time.Millisecond)
			if woke.Load() {
				t.Fatal("consumer proceeded before the flag was set")
			}
			th := rt.NewThread()
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				payload.Store(tx, 42)
				flag.Store(tx, 1)
			})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Retry never woke")
			}
			if got != 42 {
				t.Errorf("consumer read %d, want 42 (must see the producer's whole commit)", got)
			}
			if rt.Stats().Retries == 0 {
				t.Error("Retries stat not counted")
			}
		})
	}
}

func TestRetryEmptyReadSetPanics(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty-read-set Retry")
		}
	}()
	_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) { tx.Retry() })
}

// TestRetryBlockingQueue implements the classic blocking pop with Retry: no
// lost wake-ups even with many producers and consumers.
func TestRetryBlockingQueue(t *testing.T) {
	rt := New(Config{})
	head := NewTAny(nil) // simple Treiber-style transactional stack
	type node struct {
		v    int
		next any
	}
	const producers, perP, consumers = 3, 200, 3
	total := producers * perP

	// taken counts pops inside the pop transaction itself: a consumer that
	// finds the stack empty decides between Retry and giving up from
	// transactional state, so the final pop's commit (which writes taken)
	// wakes every consumer parked in Retry. Deciding from the
	// nontransactional consumed counter instead loses that wake-up when the
	// last pop commits before its popper bumps consumed.
	taken := NewTWord(0)
	var consumed atomic.Int64
	var sum atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for {
				if consumed.Load() >= int64(total) {
					return
				}
				var v int
				popped := false
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					popped = false
					h := head.Load(tx)
					if h == nil {
						// Blocking pop — but bounded: give up once every
						// value has been taken so the test can finish.
						if taken.Load(tx) >= uint64(total) {
							return
						}
						tx.Retry()
					}
					n := h.(*node)
					head.Store(tx, n.next)
					taken.Store(tx, taken.Load(tx)+1)
					v = n.v
					popped = true
				})
				if popped {
					consumed.Add(1)
					sum.Add(int64(v))
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < perP; i++ {
				v := p*perP + i
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					head.Store(tx, &node{v: v, next: head.Load(tx)})
				})
			}
		}()
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("queue drain hung: consumed %d/%d", consumed.Load(), total)
	}
	want := int64(total) * int64(total-1) / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d (every value exactly once)", sum.Load(), want)
	}
}

// TestRetryFig2Replacement re-expresses the paper's Figure 2 maintenance
// pattern with Retry instead of the cond->semaphore transformation: the
// maintainer sleeps on exactly the predicate "work pending or shutdown".
func TestRetryFig2Replacement(t *testing.T) {
	rt := New(Config{})
	workPending := NewTWord(0)
	canRun := NewTWord(1)
	var served atomic.Int64
	done := make(chan struct{})
	go func() { // the maintainer
		defer close(done)
		th := rt.NewThread()
		for {
			shutdown := false
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				shutdown = false
				if canRun.Load(tx) == 0 {
					shutdown = true
					return
				}
				if workPending.Load(tx) == 0 {
					tx.Retry() // no condvar, no semaphore, no mx_running flag
				}
				workPending.Store(tx, workPending.Load(tx)-1)
			})
			if shutdown {
				return
			}
			served.Add(1)
		}
	}()

	th := rt.NewThread()
	for i := 0; i < 25; i++ { // workers signal by writing the predicate
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			workPending.Store(tx, workPending.Load(tx)+1)
		})
	}
	deadline := time.After(10 * time.Second)
	for served.Load() < 25 {
		select {
		case <-deadline:
			t.Fatalf("maintainer served %d/25", served.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) { canRun.Store(tx, 0) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("maintainer did not shut down")
	}
}

// TestOnAbortAsBackoff pins the paper's §5 remark that onAbort handlers'
// "only role we envisioned ... was to employ backoff after a failed
// transaction": a user-level contention manager built from OnAbort.
func TestOnAbortAsBackoff(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMNone})
	hot := NewTWord(0)
	backoffs := 0
	th := rt.NewThread()
	attempts := 0
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		attempts++
		tx.OnAbort(func() {
			backoffs++ // a real handler would sleep here
		})
		if attempts < 4 {
			tx.Abort()
		}
		hot.Store(tx, 1)
	})
	if backoffs != 3 {
		t.Errorf("onAbort ran %d times, want 3", backoffs)
	}
}
