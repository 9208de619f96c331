package txobs

import (
	"sync"
	"testing"
)

// TestRingOverflowAttribution hammers several sinks of one observer past
// their ring capacity while a reader snapshots concurrently, and checks the
// overflow contract: every drop is counted in the dropped counter, and no
// surviving event is ever attributed to the wrong recorder — the event in a
// wrapped slot keeps its own shard/thread fields, the counter owns the loss.
// Run under -race this also proves the lock-free ring discipline.
func TestRingOverflowAttribution(t *testing.T) {
	const (
		sinks   = 4
		perSink = 1000
		ringCap = 64 // power of two: NewRing keeps it exact
	)
	o := New(Options{Shards: sinks, RingCapacity: ringCap})
	o.Enable()

	ss := make([]*Sink, sinks)
	for i := range ss {
		ss[i] = o.NewSink()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range o.Events() {
				if ev.Shard != ev.Thread {
					t.Errorf("mid-run mis-attribution: shard %d in thread %d's ring", ev.Shard, ev.Thread)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < sinks; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSink; i++ {
				// Each recorder stamps its own sink id as the shard, so any
				// event whose Shard disagrees with its ring's Thread id was
				// mis-attributed by an overwrite.
				ss[s].TraceTx(&Event{Kind: KBegin, Orec: -1, Shard: int32(s)})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for s, sk := range ss {
		if got := sk.Ring().Recorded(); got != perSink {
			t.Errorf("sink %d recorded %d events, want %d", s, got, perSink)
		}
		if got := sk.Ring().Dropped(); got != perSink-ringCap {
			t.Errorf("sink %d dropped %d, want %d", s, got, perSink-ringCap)
		}
	}
	if got, want := o.RingDropped(), uint64(sinks*(perSink-ringCap)); got != want {
		t.Errorf("RingDropped() = %d, want %d", got, want)
	}

	for _, ev := range o.Events() {
		if ev.Shard != ev.Thread {
			t.Errorf("final mis-attribution: shard %d in thread %d's ring", ev.Shard, ev.Thread)
		}
	}

	// Reset must rewind the loss counters with the contents: post-reset
	// recordings are not wrap losses.
	o.Reset()
	if got := o.RingDropped(); got != 0 {
		t.Errorf("RingDropped() = %d after Reset, want 0", got)
	}
	ss[0].TraceTx(&Event{Kind: KBegin, Orec: -1})
	if got := o.RingDropped(); got != 0 {
		t.Errorf("RingDropped() = %d after one post-reset event, want 0", got)
	}
}
