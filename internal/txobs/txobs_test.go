package txobs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingHammer drives one shared ring from N goroutines while a reader
// snapshots concurrently, then checks (a) the total-recorded counter lost
// nothing, (b) retention loss is bounded by the ring capacity, and (c) no
// event was torn (every snapshot entry is internally consistent).
func TestRingHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
		capacity   = 256
	)
	o := New(Options{RingCapacity: capacity})
	o.Enable()
	sink := o.NewSink() // one ring, many writers
	if sink.Ring().Cap() != capacity {
		t.Fatalf("ring capacity = %d, want %d", sink.Ring().Cap(), capacity)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range sink.Ring().Snapshot() {
				checkConsistent(t, ev)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Retry and Reads encode the writer identity and iteration;
				// Cause repeats them so tearing would be detectable.
				sink.TraceTx(&Event{
					Kind:   KCommit,
					Retry:  uint32(g),
					Reads:  uint32(i),
					Writes: uint32(g + i),
					Orec:   -1,
					Cause:  fmt.Sprintf("w%d-%d", g, i),
				})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := sink.Ring().Recorded(); got != goroutines*perG {
		t.Fatalf("recorded counter = %d, want %d (lost records)", got, goroutines*perG)
	}
	if got := o.KindCount(KCommit); got != goroutines*perG {
		t.Fatalf("commit kind counter = %d, want %d (lost-commit undercount)", got, goroutines*perG)
	}
	snap := sink.Ring().Snapshot()
	// Retention bounded by capacity: with >>capacity records, every slot holds
	// an event; losses beyond the last `capacity` events are by design.
	if len(snap) != capacity {
		t.Fatalf("final snapshot holds %d events, want full ring of %d", len(snap), capacity)
	}
	seen := map[uint64]bool{}
	for _, ev := range snap {
		checkConsistent(t, ev)
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func checkConsistent(t *testing.T, ev Event) {
	t.Helper()
	want := fmt.Sprintf("w%d-%d", ev.Retry, ev.Reads)
	if ev.Cause != want || ev.Writes != ev.Retry+ev.Reads {
		t.Errorf("torn event: %+v", ev)
	}
	if ev.Seq == 0 || ev.When == 0 {
		t.Errorf("unsequenced event: %+v", ev)
	}
}

// TestDisabledRecordsNothing checks the disabled path is a pure no-op: no
// events retained, no counters moved, no histograms filled.
func TestDisabledRecordsNothing(t *testing.T) {
	o := New(Options{Orecs: 16, RingCapacity: 64})
	sink := o.NewSink()
	for i := 0; i < 100; i++ {
		sink.TraceTx(&Event{Kind: KAbort, Orec: 3, Label: RegisterLabel("test_disabled")})
		o.ObservePhase(PhaseCommit, time.Millisecond)
		o.ObserveCommand("get", time.Millisecond)
	}
	if n := sink.Ring().Recorded(); n != 0 {
		t.Fatalf("disabled ring recorded %d events", n)
	}
	if n := o.KindCount(KAbort); n != 0 {
		t.Fatalf("disabled kind counter = %d", n)
	}
	r := o.Report(0)
	if r.Events != 0 || len(r.Kinds) != 0 || len(r.SerialCauses) != 0 ||
		len(r.ConflictLabels) != 0 || len(r.Phases) != 0 || len(r.Commands) != 0 {
		t.Fatalf("disabled observer accumulated state: %+v", r)
	}
}

// TestPerThreadMerge checks that events recorded through separate per-thread
// sinks merge into one globally ordered stream.
func TestPerThreadMerge(t *testing.T) {
	const threads, each = 4, 50
	o := New(Options{RingCapacity: 128})
	o.Enable()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		s := o.NewSink()
		wg.Add(1)
		go func(s *Sink) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				s.TraceTx(&Event{Kind: KBegin, Orec: -1})
			}
		}(s)
	}
	wg.Wait()
	evs := o.Events()
	if len(evs) != threads*each {
		t.Fatalf("merged %d events, want %d", len(evs), threads*each)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("merge not ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	threadsSeen := map[int32]int{}
	for _, ev := range evs {
		threadsSeen[ev.Thread]++
	}
	if len(threadsSeen) != threads {
		t.Fatalf("events from %d threads, want %d", len(threadsSeen), threads)
	}
}

// TestHeatMapAndReport drives aborts with labels through the aggregation and
// checks the report: per-label counts, per-orec counts, attribution rate.
func TestHeatMapAndReport(t *testing.T) {
	lb := RegisterLabel("test_bucket")
	ll := RegisterLabel("test_lru")
	o := New(Options{Orecs: 32, RingCapacity: 64})
	o.Enable()
	s := o.NewSink()
	for i := 0; i < 10; i++ {
		s.TraceTx(&Event{Kind: KAbort, Orec: 5, Label: lb, Cause: "conflict: location locked"})
	}
	for i := 0; i < 3; i++ {
		s.TraceTx(&Event{Kind: KAbort, Orec: 9, Label: ll, Cause: "conflict: read validation"})
	}
	s.TraceTx(&Event{Kind: KAbortSerial, Orec: 5, Label: lb, Cause: "abort serial: consecutive-abort limit"})
	s.TraceTx(&Event{Kind: KAbortSerial, Orec: -1, Label: NoLabel, Cause: "abort serial: consecutive-abort limit"})

	r := o.Report(10)
	if len(r.ConflictLabels) != 2 || r.ConflictLabels[0].Label != "test_bucket" || r.ConflictLabels[0].Count != 10 {
		t.Fatalf("conflict labels = %+v", r.ConflictLabels)
	}
	if len(r.HotOrecs) != 2 || r.HotOrecs[0].Orec != 5 || r.HotOrecs[0].Count != 10 || r.HotOrecs[0].LastLabel != "test_bucket" {
		t.Fatalf("hot orecs = %+v", r.HotOrecs)
	}
	named, total := o.SerialAttribution()
	if named != 1 || total != 2 {
		t.Fatalf("attribution = %d/%d, want 1/2", named, total)
	}
	if r.Kinds["abort"] != 13 || r.Kinds["abort_serial"] != 2 {
		t.Fatalf("kinds = %+v", r.Kinds)
	}
	if len(r.SerialCauses) != 1 || r.SerialCauses[0].Count != 2 {
		t.Fatalf("serial causes = %+v", r.SerialCauses)
	}

	// Reset zeroes everything resettable.
	o.Reset()
	r = o.Report(0)
	if len(r.Kinds) != 0 || len(r.ConflictLabels) != 0 || len(r.HotOrecs) != 0 || len(o.Events()) != 0 {
		t.Fatalf("report not empty after reset: %+v", r)
	}
}

// TestPrometheusHistogramSum checks the exported _sum is the exact sum of
// the observations, not the truncated mean times the count: 1 ns + 2 ns must
// export 3e-09, where mean×count gives 2e-09.
func TestPrometheusHistogramSum(t *testing.T) {
	o := New(Options{})
	o.Enable()
	o.ObserveCommand("get", 1*time.Nanosecond)
	o.ObserveCommand("get", 2*time.Nanosecond)
	var buf strings.Builder
	o.Report(0).WritePrometheus(&buf)
	if want := `tm_command_latency_seconds_sum{command="get"} 3e-09`; !strings.Contains(buf.String(), want) {
		t.Fatalf("Prometheus output missing %q:\n%s", want, buf.String())
	}
}

// TestReportRendering checks the JSON and Prometheus surfaces carry the data.
func TestReportRendering(t *testing.T) {
	o := New(Options{Orecs: 8})
	o.Enable()
	s := o.NewSink()
	s.TraceTx(&Event{Kind: KAbort, Orec: 2, Label: RegisterLabel("test_render"), Cause: "conflict: location locked"})
	o.ObservePhase(PhaseCommit, 3*time.Microsecond)
	o.ObserveCommand("set", 40*time.Microsecond)

	r := o.Report(5)
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"test_render"`, `"commit"`, `"set"`, `"abort"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON report missing %s: %s", want, js)
		}
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	prom := buf.String()
	for _, want := range []string{
		`tm_events_total{kind="abort"} 1`,
		`tm_conflicts_total{structure="test_render"} 1`,
		`tm_phase_latency_seconds_count{phase="commit"} 1`,
		`tm_command_latency_seconds_bucket{command="set",le="+Inf"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, prom)
		}
	}
	if !strings.Contains(r.String(), "test_render") {
		t.Errorf("text report missing label:\n%s", r)
	}
}
