package protocol

import (
	"bytes"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/mcstats"
)

// runTextOn feeds a script through an existing cache (so tests can enable
// tracing or run several connections against the same state).
func runTextOn(t *testing.T, c *engine.Cache, script string) string {
	t.Helper()
	d := &duplex{in: bytes.NewBufferString(script), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return d.out.String()
}

// statValue extracts the value of one STAT line, or "" when absent.
func statValue(out, key string) string {
	for _, line := range strings.Split(out, "\r\n") {
		rest, ok := strings.CutPrefix(line, "STAT "+key+" ")
		if ok {
			return rest
		}
	}
	return ""
}

// TestStatsReset is the protocol-level memcached `stats reset` contract:
// command counters and total_items go to zero, the curr_items/bytes gauges
// survive.
func TestStatsResetContract(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	out := runTextOn(t, c,
		"set foo 0 0 3\r\nbar\r\nget foo\r\nget miss\r\nstats\r\n")
	if statValue(out, "cmd_get") != "2" || statValue(out, "cmd_set") != "1" ||
		statValue(out, "total_items") != "1" || statValue(out, "curr_items") != "1" {
		t.Fatalf("pre-reset stats:\n%s", out)
	}

	out = runTextOn(t, c, "stats reset\r\nstats\r\n")
	if !strings.HasPrefix(out, "RESET\r\n") {
		t.Fatalf("no RESET reply:\n%s", out)
	}
	for _, key := range []string{"cmd_get", "cmd_set", "get_hits", "get_misses", "total_items", "evictions"} {
		if v := statValue(out, key); v != "0" {
			t.Errorf("%s = %q after reset, want 0", key, v)
		}
	}
	// Gauges survive.
	if v := statValue(out, "curr_items"); v != "1" {
		t.Errorf("curr_items = %q after reset, want 1", v)
	}
	if v := statValue(out, "bytes"); v == "0" || v == "" {
		t.Errorf("bytes = %q after reset, want preserved", v)
	}
}

// TestStatsResetClearsConnCounters extends the reset contract to the
// server's connection counters: `stats reset` zeroes the conn_errors_* and
// reply-batching counters, while the conn_buffers_* gauges are still
// reported.
func TestStatsResetClearsConnCounters(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	var ce mcstats.ConnErrors
	for _, n := range []*atomic.Uint64{&ce.IO, &ce.Protocol, &ce.Timeout, &ce.Flushes, &ce.BatchedReplies, &ce.WritevBatches} {
		n.Store(7)
	}
	d := &duplex{in: bytes.NewBufferString("stats reset\r\n"), out: &bytes.Buffer{}}
	conn := NewConn(c.NewWorker(), d)
	conn.SetConnErrors(&ce)
	if err := conn.Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for name, n := range map[string]uint64{
		"conn_errors_io": ce.IO.Load(), "conn_errors_protocol": ce.Protocol.Load(),
		"conn_errors_timeout": ce.Timeout.Load(), "conn_writev_batches": ce.WritevBatches.Load(),
	} {
		if n != 0 {
			t.Errorf("%s = %d after stats reset, want 0", name, n)
		}
	}
	// The RESET reply itself is flushed after the reset, so the batching
	// counters may count that one write, never the 7 from before.
	if f, b := ce.Flushes.Load(), ce.BatchedReplies.Load(); f > 1 || b > 1 {
		t.Errorf("conn_flushes = %d, conn_batched_replies = %d after stats reset, want <= 1", f, b)
	}

	d = &duplex{in: bytes.NewBufferString("stats\r\n"), out: &bytes.Buffer{}}
	conn = NewConn(c.NewWorker(), d)
	conn.SetConnErrors(&ce)
	if err := conn.Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	out := d.out.String()
	if statValue(out, "conn_errors_io") != "0" || statValue(out, "conn_buffers_inuse") == "" ||
		statValue(out, "conn_buffers_idle") == "" {
		t.Fatalf("stats after reset:\n%s", out)
	}
}

// TestStatsHTMAndWatchdogLines checks the plain `stats` reply carries the
// watchdog and HTM emulation counters next to the conn-error lines.
func TestStatsHTMAndWatchdogLines(t *testing.T) {
	out := runText(t, "stats\r\n")
	for _, key := range []string{
		"tm_watchdog_backoff", "tm_watchdog_serialize",
		"tm_htm_capacity_aborts", "tm_htm_fallbacks",
	} {
		if statValue(out, key) == "" {
			t.Errorf("stats reply missing %s:\n%s", key, out)
		}
	}
}

// TestStatsTMSubcommands drives `stats tm`, `stats conflicts`, and
// `stats latency` with tracing off and on.
func TestStatsTMSubcommands(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	// Tracing never enabled: conflicts and latency reply a bare disabled
	// marker; stats tm still reports the runtime counters (the read-only
	// fast-path numbers must be observable without tracing).
	for _, sub := range []string{"conflicts", "latency"} {
		out := runTextOn(t, c, "stats "+sub+"\r\n")
		if out != "STAT tracing 0\r\nEND\r\n" {
			t.Fatalf("stats %s with tracing off = %q", sub, out)
		}
	}
	out := runTextOn(t, c, "stats tm\r\n")
	for _, key := range []string{"ro_fast_commit", "ro_upgrade", "tracing"} {
		if statValue(out, key) == "" {
			t.Fatalf("stats tm with tracing off missing %s:\n%s", key, out)
		}
	}
	if !strings.HasSuffix(out, "STAT tracing 0\r\nEND\r\n") {
		t.Fatalf("stats tm with tracing off should end with disabled marker:\n%s", out)
	}

	c.EnableTracing()
	out = runTextOn(t, c, "set foo 0 0 3\r\nbar\r\nget foo\r\nstats tm\r\n")
	if statValue(out, "tracing") != "1" {
		t.Fatalf("stats tm tracing line:\n%s", out)
	}
	if statValue(out, "events_commit") == "" || statValue(out, "events_begin") == "" {
		t.Fatalf("stats tm missing event counts:\n%s", out)
	}

	out = runTextOn(t, c, "stats latency\r\n")
	m := regexp.MustCompile(`STAT cmd_set count=(\d+) mean_ns=\d+ p50_ns=\d+ p95_ns=\d+ p99_ns=\d+ max_ns=\d+`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("stats latency missing cmd_set histogram:\n%s", out)
	}
	if !strings.Contains(out, "STAT phase_commit count=") {
		t.Fatalf("stats latency missing commit phase:\n%s", out)
	}

	// `stats conflicts` shape: tracing line always present; label lines only
	// under contention, so just check it terminates correctly.
	out = runTextOn(t, c, "stats conflicts\r\n")
	if statValue(out, "tracing") != "1" || !strings.HasSuffix(out, "END\r\n") {
		t.Fatalf("stats conflicts reply:\n%s", out)
	}

	// `stats reset` also clears the observability aggregates.
	out = runTextOn(t, c, "stats reset\r\nstats latency\r\n")
	if strings.Contains(out, "STAT cmd_set count=") {
		t.Fatalf("latency histograms survived stats reset:\n%s", out)
	}
}
