package protocol

import (
	"fmt"

	"repro/internal/loghist"
	"repro/internal/poller"
)

// EventLoopSnapshot is one transport's telemetry at a point in time. The
// event-loop transport implements TransportStats by filling this in; the
// classic goroutine-per-connection transport has no queues to report and
// simply never installs a TransportStats, which `stats eventloop` renders
// as "eventloop 0".
type EventLoopSnapshot struct {
	Workers int `json:"workers"`
	Conns   int `json:"conns"`

	// Queue gauges: instantaneous depths, not counters — they survive a
	// stats reset by construction.
	AffineDepth []int `json:"affine_depth"`
	AffineCap   int   `json:"affine_cap"`
	SharedDepth int   `json:"shared_depth"`
	SharedCap   int   `json:"shared_cap"`
	OverflowLen int   `json:"overflow_len"`

	// OverflowSpills counts enqueues that found both the affine and shared
	// queues full and spilled to the unbounded overflow list — the transport's
	// saturation signal (previously a silent append).
	OverflowSpills uint64 `json:"overflow_spills"`

	// Dispatch is the queued→running latency in nanoseconds; BurstOps is the
	// commands-served-per-burst distribution (its unit is ops, not ns).
	Dispatch loghist.Snapshot `json:"dispatch_ns"`
	BurstOps loghist.Snapshot `json:"burst_ops"`

	// WorkerBusy is each pool worker's busy fraction (time inside bursts /
	// wall time) since start or the last reset.
	WorkerBusy []float64 `json:"worker_busy"`

	// Poller counters, when the poller implements poller.CounterSource.
	Poller    poller.Counters `json:"poller"`
	HasPoller bool            `json:"has_poller_counters"`
}

// TransportStats is implemented by transports that expose queue/dispatch
// telemetry (the event-loop transport). The server installs it per
// connection via SetTransport; `stats eventloop` reads it and `stats reset`
// resets its counters (gauges survive).
type TransportStats interface {
	EventLoopSnapshot() EventLoopSnapshot
	// ResetTransportCounters zeroes the transport's counters and histograms
	// and restarts the busy-fraction window. Gauges (queue depths, overflow
	// length, connection count) are unaffected.
	ResetTransportCounters()
}

// SetTransport installs the transport's telemetry source for the stats
// surface (nil for transports without one).
func (c *Conn) SetTransport(ts TransportStats) { c.tstats = ts }

// histLine renders one histogram snapshot as a single STAT line — the one
// renderer behind `stats latency`, `stats eventloop` and `stats
// fingerprint`. unit suffixes the quantile field names ("_ns" for durations,
// "" for dimensionless).
func (c *Conn) histLine(name, unit string, s loghist.Snapshot) {
	fmt.Fprintf(c.w, "STAT %s count=%d mean%s=%d p50%s=%d p95%s=%d p99%s=%d max%s=%d\r\n",
		name, s.Count, unit, s.Mean, unit, s.P50, unit, s.P95, unit, s.P99, unit, s.Max)
}

// cmdStatsEventLoop reports the transport telemetry (`stats eventloop`).
func (c *Conn) cmdStatsEventLoop() error {
	if c.tstats == nil {
		fmt.Fprintf(c.w, "STAT eventloop 0\r\n")
		return c.reply("END\r\n")
	}
	s := c.tstats.EventLoopSnapshot()
	fmt.Fprintf(c.w, "STAT eventloop 1\r\n")
	fmt.Fprintf(c.w, "STAT workers %d\r\n", s.Workers)
	fmt.Fprintf(c.w, "STAT conns %d\r\n", s.Conns)
	fmt.Fprintf(c.w, "STAT shared_depth %d\r\n", s.SharedDepth)
	fmt.Fprintf(c.w, "STAT shared_cap %d\r\n", s.SharedCap)
	fmt.Fprintf(c.w, "STAT overflow_len %d\r\n", s.OverflowLen)
	fmt.Fprintf(c.w, "STAT event_overflow_spills %d\r\n", s.OverflowSpills)
	for i, d := range s.AffineDepth {
		fmt.Fprintf(c.w, "STAT affine_%d_depth %d\r\n", i, d)
	}
	fmt.Fprintf(c.w, "STAT affine_cap %d\r\n", s.AffineCap)
	for i, b := range s.WorkerBusy {
		fmt.Fprintf(c.w, "STAT worker_%d_busy %.3f\r\n", i, b)
	}
	c.histLine("dispatch_ns", "_ns", s.Dispatch)
	c.histLine("burst_ops", "", s.BurstOps)
	if s.HasPoller {
		fmt.Fprintf(c.w, "STAT poller_wakeups %d\r\n", s.Poller.Wakeups)
		fmt.Fprintf(c.w, "STAT poller_probes %d\r\n", s.Poller.Probes)
		fmt.Fprintf(c.w, "STAT poller_synthesized %d\r\n", s.Poller.Synthesized)
	}
	return c.reply("END\r\n")
}

// cmdStatsFingerprint reports the decayed per-shard workload fingerprints
// (`stats fingerprint`). A cache where fingerprinting was never enabled
// replies with a bare disabled marker; a disabled-but-collected cache still
// reports its last windows with fingerprint 0 on the first line.
func (c *Conn) cmdStatsFingerprint() error {
	o := c.worker.Fingerprint()
	if o == nil {
		fmt.Fprintf(c.w, "STAT fingerprint 0\r\n")
		return c.reply("END\r\n")
	}
	snap := o.Snapshot()
	fmt.Fprintf(c.w, "STAT fingerprint %d\r\n", boolInt(c.worker.FingerprintEnabled()))
	fmt.Fprintf(c.w, "STAT shards %d\r\n", len(snap.Shards))
	c.histLine("txn_queue", "_ns", snap.TxnQueue)
	c.histLine("txn_validate", "_ns", snap.TxnValidate)
	c.histLine("txn_apply", "_ns", snap.TxnApply)
	c.histLine("txn_serial_wait", "_ns", snap.TxnSerialWait)
	for i := range snap.Shards {
		sh := &snap.Shards[i]
		stat := func(k string, v uint64) {
			fmt.Fprintf(c.w, "STAT shard_%d_%s %d\r\n", i, k, v)
		}
		stat("ops", sh.Ops)
		stat("reads", sh.Reads)
		stat("writes", sh.Writes)
		stat("deletes", sh.Deletes)
		stat("deltas", sh.Deltas)
		stat("touches", sh.Touches)
		stat("hits", sh.Hits)
		stat("misses", sh.Misses)
		fmt.Fprintf(c.w, "STAT shard_%d_concentration %.3f\r\n", i, sh.Concentration)
		c.histLine(fmt.Sprintf("shard_%d_vsize", i), "", sh.VSize)
		stat("abort_conflicts", sh.Aborts.Conflicts)
		stat("abort_start_serial", sh.Aborts.StartSerial)
		stat("abort_abort_serial", sh.Aborts.AbortSerial)
		stat("abort_inflight_switch", sh.Aborts.InflightSwitch)
		stat("abort_watchdog", sh.Aborts.Watchdog)
		// Hot keys ride in the value position (count, then error bound, then
		// the key itself last so keys with no spaces parse unambiguously).
		for j, hk := range sh.HotKeys {
			fmt.Fprintf(c.w, "STAT shard_%d_hot_%d %d %d %s\r\n", i, j, hk.Count, hk.Err, hk.Key)
		}
	}
	return c.reply("END\r\n")
}
