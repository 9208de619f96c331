package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSerialLockReadersShareWritersExclude(t *testing.T) {
	var l serialLock
	l.RLock()
	l.RLock() // readers share
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("writer acquired while readers held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	l.RUnlock()
	l.RUnlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("writer never acquired after readers drained")
	}
	l.Unlock()
}

func TestSerialLockWriterBlocksNewReaders(t *testing.T) {
	var l serialLock
	l.Lock()
	var entered atomic.Bool
	done := make(chan struct{})
	go func() {
		l.RLock()
		entered.Store(true)
		l.RUnlock()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if entered.Load() {
		t.Fatal("reader entered while writer held the lock")
	}
	l.Unlock()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("reader starved after writer release")
	}
}

func TestSerialLockWritersMutuallyExclude(t *testing.T) {
	var l serialLock
	var inside atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Lock()
				if inside.Add(1) != 1 {
					t.Error("two writers inside")
				}
				inside.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestSerialLockDisabled(t *testing.T) {
	l := serialLock{disabled: true}
	// Read side free; write side a plain mutex.
	l.RLock()
	l.RLock()
	l.Lock() // must not block on the (no-op) readers
	var second atomic.Bool
	done := make(chan struct{})
	go func() {
		l.Lock()
		second.Store(true)
		l.Unlock()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if second.Load() {
		t.Fatal("two writers inside disabled lock")
	}
	l.Unlock()
	<-done
	l.RUnlock()
	l.RUnlock()
}

func TestTWordDirectOps(t *testing.T) {
	w := NewTWord(10)
	if w.AddDirect(5) != 15 {
		t.Error("AddDirect")
	}
	if !w.CompareAndSwapDirect(15, 20) {
		t.Error("CAS success case failed")
	}
	if w.CompareAndSwapDirect(15, 99) {
		t.Error("CAS failure case succeeded")
	}
	if w.LoadDirect() != 20 {
		t.Error("final value wrong")
	}
}

func TestTBytesBounds(t *testing.T) {
	tb := NewTBytes(10)
	if tb.Len() != 10 || tb.Words() != 2 {
		t.Errorf("Len=%d Words=%d", tb.Len(), tb.Words())
	}
	rt := New(Config{})
	th := rt.NewThread()
	// ReadAll with a short destination panics (programmer error).
	err := th.Run(Props{Kind: Atomic}, func(tx *Tx) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for short ReadAll destination")
			}
		}()
		tb.ReadAll(tx, make([]byte, 5))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for long WriteAll source")
			}
		}()
		tb.WriteAll(tx, make([]byte, 11))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfileDisabledByDefault(t *testing.T) {
	rt := New(Config{})
	if rt.TracingObserver() != nil {
		t.Error("observer non-nil before EnableTracing")
	}
	th := rt.NewThread()
	// Events without tracing must not crash.
	_ = th.Run(Props{Kind: Relaxed}, func(tx *Tx) { tx.Unsafe("x") })
	o := rt.EnableTracing()
	_ = th.Run(Props{Kind: Relaxed, Site: "here"}, func(tx *Tx) { tx.Unsafe("y") })
	if rt.TracingObserver() != o {
		t.Fatal("TracingObserver is not the enabled observer")
	}
	causes := o.SerialCauses()
	if len(causes) != 1 || causes[0].Cause != "in-flight switch: y @ here" || causes[0].Count != 1 {
		t.Errorf("causes = %v", causes)
	}
	// Enabling twice keeps the existing observer.
	if got := rt.EnableTracing(); got != o {
		t.Error("EnableTracing replaced the live observer")
	}
}

func TestStartSerialProfileAttribution(t *testing.T) {
	rt := New(Config{})
	rt.EnableTracing()
	th := rt.NewThread()
	_ = th.Run(Props{Kind: Relaxed, StartSerial: true, Site: "do_item_alloc"}, func(tx *Tx) {})
	causes := rt.TracingObserver().SerialCauses()
	if len(causes) != 1 || causes[0].Cause != "start serial @ do_item_alloc" {
		t.Errorf("causes = %v", causes)
	}
}
