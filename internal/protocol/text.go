// Package protocol implements the memcached wire protocols — the full text
// protocol and the binary protocol subset memslap --binary exercises — on top
// of an engine.Worker. The server hands each connection a Conn; Serve
// auto-detects the protocol from the first byte, as memcached does.
package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/mcstats"
	"repro/internal/txobs"
	"repro/internal/txtrace"
)

// Version is the version string reported to clients; the paper's study uses
// memcached 1.4.15, so we advertise a lineage-compatible tag.
const Version = "1.4.15-tm-repro"

// ErrQuit reports a clean client-requested shutdown of the connection.
var ErrQuit = errors.New("protocol: quit")

// ErrProtocol marks connection-fatal framing violations (a frame truncated
// mid-body, an unparseable binary header): errors the server counts as
// protocol-caused rather than transport-caused. Recoverable mistakes get a
// CLIENT_ERROR / status reply instead and never surface here.
var ErrProtocol = errors.New("protocol: malformed frame")

// MaxKeyLen is the protocol's 250-byte key limit.
const MaxKeyLen = 250

// MaxBodyLen bounds any value/body a client may declare (8 MiB, ample for
// the 1 MiB slab-page limit); larger claims are drained, not allocated.
const MaxBodyLen = 8 << 20

// Control lets the transport owner (the server) interpose on command
// boundaries: arming idle/read deadlines, tracking busy state for graceful
// drain, refusing new commands at shutdown. All methods run on the
// connection's own goroutine.
type Control interface {
	// BeforeCommand runs before blocking for the next command. A non-nil
	// error stops serving (Serve returns it).
	BeforeCommand() error
	// CommandStarted runs once the first byte of a command has arrived.
	CommandStarted()
	// CommandDone runs after the command's reply has been written.
	CommandDone()
}

// buffersWriter is implemented by transports (the server's connection
// wrapper) that can put a gathered response on the wire as one writev-style
// write, without copying the slices together first.
type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// Conn serves one client connection.
type Conn struct {
	worker *engine.Worker
	r      *bufio.Reader
	w      *bufio.Writer
	bw     buffersWriter // non-nil when the transport supports gathered writes

	// transport and fbr let pooled connections re-attach buffers: the bufio
	// pair is Reset onto these on every AttachBuffers. Classic (NewConn)
	// connections keep their buffers for life and never touch them.
	transport io.ReadWriter
	fbr       *flushBeforeRead
	pooled    bool

	// trackShard/affinity record which TM shard the last command routed to
	// (-1 for multi-shard or shard-agnostic commands). The event-loop
	// transport reads Affinity after each burst to pick the request queue.
	trackShard bool
	affinity   int

	ctl      Control
	connErrs *mcstats.ConnErrors
	tstats   TransportStats

	// spans is the connection's request-span buffer (nil when the transport
	// owner did not wire tracing). One Begin/End pair brackets every
	// dispatched command; with tracing off, Begin is a single atomic load.
	spans *txtrace.ConnSpans

	gatActive  bool
	gatExptime uint64

	// tx is the connection's open wire transaction (nil outside txbegin/
	// txcommit). It lives entirely in this struct — no engine resource is
	// held — so dropping the connection drops the transaction.
	tx *txState
}

// NewConn wraps a transport with a protocol handler bound to a worker.
//
// Replies are batched: they accumulate in the write buffer while further
// pipelined commands are already readable and go to the transport in one
// write when the pipeline drains (see flushBeforeRead), when the buffer
// fills, or — for large multi-get responses on capable transports — as one
// gathered writev-style write.
func NewConn(worker *engine.Worker, rw io.ReadWriter) *Conn {
	c := newConnBase(worker, rw)
	c.w = bufio.NewWriter(rw)
	c.r = bufio.NewReader(c.fbr)
	return c
}

// NewConnPooled builds a connection whose read/write buffers come from a
// process-wide sync.Pool and are attached only while the connection is being
// served (AttachBuffers / ReleaseBuffers). Idle pooled connections hold zero
// buffer bytes. The worker binding is also deferred: the event-loop
// transport lends each connection its execution worker's engine handle via
// SetWorker at the start of every burst.
func NewConnPooled(rw io.ReadWriter) *Conn {
	c := newConnBase(nil, rw)
	c.pooled = true
	return c
}

func newConnBase(worker *engine.Worker, rw io.ReadWriter) *Conn {
	c := &Conn{worker: worker, transport: rw, affinity: -1}
	if bw, ok := rw.(buffersWriter); ok {
		c.bw = bw
	}
	c.fbr = &flushBeforeRead{c: c, r: rw}
	return c
}

// flushBeforeRead interposes on the read side's buffer refills. The
// bufio.Reader pulls from the transport only when its buffer cannot satisfy a
// request — i.e. exactly when the connection is about to block waiting for
// the client — so flushing pending replies here turns per-command flushes
// into one gathered write per pipelined batch while making it impossible to
// block against a client that is itself waiting for a reply.
type flushBeforeRead struct {
	c *Conn
	r io.Reader
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	if err := f.c.flushNow(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// SetControl installs command-boundary hooks (nil disables them).
func (c *Conn) SetControl(ctl Control) { c.ctl = ctl }

// SetConnErrors supplies the server's connection-error counters for the
// `stats` command to report (nil omits the lines).
func (c *Conn) SetConnErrors(e *mcstats.ConnErrors) { c.connErrs = e }

// SetSpans installs the connection's request-span buffer (nil disables
// request tracing for this connection).
func (c *Conn) SetSpans(cs *txtrace.ConnSpans) { c.spans = cs }

// SetWorker rebinds the connection to an engine worker. The event-loop
// transport shares a small pool of workers across all connections (a worker
// registers per-shard stat blocks for life, so one per connection would leak
// at 100k conns) and lends one to the connection for each burst.
func (c *Conn) SetWorker(w *engine.Worker) { c.worker = w }

// SetShardTracking enables per-command shard-affinity recording (see
// Affinity). Off by default; the single-shard transport never asks.
func (c *Conn) SetShardTracking(on bool) {
	c.trackShard = on
	c.affinity = -1
}

// Affinity reports the TM shard the connection's last routing-decidable
// command touched, or -1 when the last command was multi-shard (multi-key
// get, flush_all, stats, wire transactions) or tracking is off. The
// event-loop transport uses it to keep a connection on a shard-affine
// worker queue.
func (c *Conn) Affinity() int { return c.affinity }

// noteKey records the shard of a single-key command for Affinity.
func (c *Conn) noteKey(key []byte) {
	if c.trackShard {
		c.affinity = c.worker.ShardOf(key)
	}
}

// noteShared marks the current command as not shard-routable.
func (c *Conn) noteShared() {
	if c.trackShard {
		c.affinity = -1
	}
}

// InputBuffered reports how many request bytes are already buffered in
// userspace. The event-loop transport keeps serving while this is non-zero:
// parking a connection with buffered input would deadlock it, because the
// poller only sees kernel-level readiness.
func (c *Conn) InputBuffered() int {
	if c.r == nil {
		return 0
	}
	return c.r.Buffered()
}

// Flush writes any buffered replies to the transport.
func (c *Conn) Flush() error { return c.flushNow() }

// Serve processes commands until EOF, quit, or a transport error. Any
// buffered replies are flushed before it returns.
func (c *Conn) Serve() error {
	err := c.serveLoop()
	c.tx = nil // disconnect is the implicit txabort
	if ferr := c.flushNow(); err == nil {
		err = ferr
	}
	return err
}

func (c *Conn) serveLoop() error {
	for {
		if err := c.ServeOne(); err != nil {
			if errors.Is(err, ErrQuit) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// ServeOne serves exactly one command, including the Control boundary hooks.
// It returns io.EOF on clean peer close and ErrQuit on a quit command; the
// caller owns mapping those to a clean shutdown. The event-loop transport
// calls this in a burst while InputBuffered is non-zero, then parks the
// connection back in the poller.
func (c *Conn) ServeOne() error {
	if c.pooled && c.r == nil {
		c.AttachBuffers()
	}
	if c.ctl != nil {
		if err := c.ctl.BeforeCommand(); err != nil {
			return err
		}
	}
	first, err := c.r.Peek(1)
	if err != nil {
		return err
	}
	if c.ctl != nil {
		c.ctl.CommandStarted()
	}
	if first[0] >= binMagicReq {
		// Any high first byte is framed as binary; serveBinaryOne rejects
		// wrong magic with a status reply rather than misparsing the
		// frame as a text command line.
		err = c.serveBinaryOne()
	} else {
		err = c.serveTextOne()
	}
	if c.ctl != nil {
		c.ctl.CommandDone()
	}
	return err
}

// serveTextOne handles a single text-protocol command line.
func (c *Conn) serveTextOne() error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return c.reply("ERROR\r\n")
	}
	fields := bytes.Fields(line)
	cmd := string(fields[0])
	args := fields[1:]

	// Request tracing: one atomic load (inside Begin) when tracing is off.
	// When a span opens, the worker's STM threads deliver every transaction
	// event of this command into it until End.
	if cs := c.spans; cs != nil && cs.Begin(cmd) {
		c.worker.SetTxTrace(cs)
		err := c.dispatchTextTimed(cmd, args)
		c.worker.SetTxTrace(nil)
		cs.End()
		return err
	}
	return c.dispatchTextTimed(cmd, args)
}

// dispatchTextTimed is dispatchText behind the per-command latency gate: one
// observer load when `stats tm` tracing was never enabled, one timestamp pair
// per command when it is on.
func (c *Conn) dispatchTextTimed(cmd string, args [][]byte) error {
	if o := c.worker.Observer(); o != nil && o.Enabled() {
		t0 := time.Now()
		err := c.dispatchText(cmd, args)
		o.ObserveCommand(cmd, time.Since(t0))
		return err
	}
	return c.dispatchText(cmd, args)
}

// dispatchText routes one parsed text command. Affinity defaults to shared
// (-1) per command; the single-key handlers below overwrite it with the
// key's shard once parsed.
func (c *Conn) dispatchText(cmd string, args [][]byte) error {
	c.noteShared()
	switch cmd {
	case "txbegin":
		return c.cmdTxBegin(args)
	case "txcommit":
		return c.cmdTxCommit()
	case "txabort":
		return c.cmdTxAbort(args)
	}
	if c.tx != nil {
		return c.dispatchTextInTx(cmd, args)
	}
	switch cmd {
	case "get", "gets":
		return c.cmdGet(args, cmd == "gets", false)
	case "gat", "gats":
		return c.cmdGat(args, cmd == "gats")
	case "set", "add", "replace", "append", "prepend", "cas":
		return c.cmdStore(cmd, args)
	case "delete":
		return c.cmdDelete(args)
	case "incr", "decr":
		return c.cmdDelta(cmd, args)
	case "touch":
		return c.cmdTouch(args)
	case "stats":
		if len(args) > 0 {
			switch string(args[0]) {
			case "reset":
				// ResetStats clears engine counters AND the fingerprint
				// observer exactly once (cache-global); the transport's
				// counters and the server's conn_* counters are reset here
				// because the engine cannot see them. All are idempotent
				// Store(0)s, so racing resets from two connections stay
				// coherent. Gauges (conn_buffers_*) are left alone.
				c.worker.ResetStats()
				if c.tstats != nil {
					c.tstats.ResetTransportCounters()
				}
				if c.connErrs != nil {
					c.connErrs.Reset()
				}
				return c.reply("RESET\r\n")
			case "slabs":
				return c.cmdStatsSlabs()
			case "tm":
				return c.cmdStatsTM()
			case "tmctl":
				return c.cmdStatsTMCtl()
			case "conflicts":
				return c.cmdStatsConflicts()
			case "latency":
				return c.cmdStatsLatency()
			case "slowlog":
				return c.cmdStatsSlowlog()
			case "fingerprint":
				return c.cmdStatsFingerprint()
			case "eventloop":
				return c.cmdStatsEventLoop()
			}
		}
		return c.cmdStats()
	case "flush_all":
		return c.cmdFlushAll(args)
	case "version":
		return c.reply("VERSION " + Version + "\r\n")
	case "verbosity":
		if len(args) >= 1 {
			return c.replyMaybe(args, "OK\r\n")
		}
		return c.clientError("usage: verbosity <level>")
	case "quit":
		return ErrQuit
	default:
		return c.reply("ERROR\r\n")
	}
}

func (c *Conn) cmdGat(args [][]byte, withCAS bool) error {
	if len(args) < 2 {
		return c.clientError("gat requires exptime and a key")
	}
	exptime, err := strconv.ParseUint(string(args[0]), 10, 64)
	if err != nil {
		return c.clientError("invalid exptime argument")
	}
	c.gatExptime = absoluteExptime(c.worker, exptime)
	defer func() { c.gatExptime = 0; c.gatActive = false }()
	c.gatActive = true
	return c.cmdGet(args[1:], withCAS, true)
}

var (
	crlf    = []byte("\r\n")
	endLine = []byte("END\r\n")
)

// writevThreshold: gathered multi-get responses at least this large skip the
// bufio copy and go to the transport as a single writev-style write.
const writevThreshold = 4096

func (c *Conn) cmdGet(args [][]byte, withCAS, touch bool) error {
	if len(args) == 0 {
		return c.clientError("get requires a key")
	}
	for _, key := range args {
		if len(key) > MaxKeyLen {
			return c.clientError("key too long")
		}
	}
	if touch && c.gatActive {
		// gat updates expiries — a writing command — so it keeps the per-key
		// item sections.
		for _, key := range args {
			val, flags, cas, ok := c.worker.GetAndTouch(key, c.gatExptime)
			if !ok {
				continue
			}
			if withCAS {
				fmt.Fprintf(c.w, "VALUE %s %d %d %d\r\n", key, flags, len(val), cas)
			} else {
				fmt.Fprintf(c.w, "VALUE %s %d %d\r\n", key, flags, len(val))
			}
			c.w.Write(val)
			c.w.Write(crlf)
		}
		return c.reply("END\r\n")
	}
	if len(args) == 1 {
		c.noteKey(args[0])
	}
	// get k1 k2 ...: one batched read-only transaction per bounded key group
	// (engine.MultiGetBatch) instead of one transaction per key, and one
	// gathered response instead of one write per VALUE line.
	results := c.worker.GetMulti(args)
	bufs := make(net.Buffers, 0, 3*len(args)+1)
	total := 0
	for i, key := range args {
		r := &results[i]
		if !r.Found {
			continue
		}
		var hdr []byte
		if withCAS {
			hdr = fmt.Appendf(nil, "VALUE %s %d %d %d\r\n", key, r.Flags, len(r.Value), r.CAS)
		} else {
			hdr = fmt.Appendf(nil, "VALUE %s %d %d\r\n", key, r.Flags, len(r.Value))
		}
		bufs = append(bufs, hdr, r.Value, crlf)
		total += len(hdr) + len(r.Value) + 2
	}
	bufs = append(bufs, endLine)
	if c.bw != nil && total >= writevThreshold {
		if err := c.flushNow(); err != nil {
			return err
		}
		if c.connErrs != nil {
			c.connErrs.WritevBatches.Add(1)
		}
		_, err := c.bw.WriteBuffers(bufs)
		return err
	}
	for _, b := range bufs {
		c.w.Write(b)
	}
	return c.flushIfIdle()
}

func (c *Conn) cmdStore(cmd string, args [][]byte) error {
	want := 4
	if cmd == "cas" {
		want = 5
	}
	if len(args) < want {
		c.reply("ERROR\r\n")
		return nil
	}
	key := args[0]
	flags, err1 := strconv.ParseUint(string(args[1]), 10, 32)
	exptime, err2 := strconv.ParseUint(string(args[2]), 10, 64)
	nbytes, err3 := strconv.Atoi(string(args[3]))
	var casUnique uint64
	var err4 error
	noreplyAt := 4
	if cmd == "cas" {
		casUnique, err4 = strconv.ParseUint(string(args[4]), 10, 64)
		noreplyAt = 5
	}
	noreply := len(args) > noreplyAt && string(args[noreplyAt]) == "noreply"
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || nbytes < 0 ||
		nbytes > MaxBodyLen || len(key) > MaxKeyLen {
		// Still must consume the data block to stay in sync — without
		// allocating whatever size the client claimed.
		if nbytes >= 0 {
			c.discard(nbytes + 2)
		}
		if noreply {
			return c.flushIfIdle()
		}
		return c.clientError("bad command line format")
	}
	data := make([]byte, nbytes)
	if _, err := io.ReadFull(c.r, data); err != nil {
		return fmt.Errorf("%w: set data block truncated: %v", ErrProtocol, err)
	}
	// The data block must be terminated by a bare CRLF. Reading to the next
	// newline (rather than exactly two bytes) means a short or long data
	// block leaves the reader aligned on a line boundary: the connection
	// stays usable after the error, as memcached's conn_swallow state
	// guarantees.
	term, err := c.readLine()
	if err != nil {
		return fmt.Errorf("%w: set data block unterminated: %v", ErrProtocol, err)
	}
	if len(term) != 0 {
		if noreply {
			return c.flushIfIdle()
		}
		return c.clientError("bad data chunk")
	}
	// Relative expiry (≤ 30 days, memcached convention) is converted here.
	exptime = absoluteExptime(c.worker, exptime)

	c.noteKey(key)
	var res engine.StoreResult
	switch cmd {
	case "set":
		res = c.worker.Set(key, uint32(flags), exptime, data)
	case "add":
		res = c.worker.Add(key, uint32(flags), exptime, data)
	case "replace":
		res = c.worker.Replace(key, uint32(flags), exptime, data)
	case "append":
		res = c.worker.Append(key, data)
	case "prepend":
		res = c.worker.Prepend(key, data)
	case "cas":
		res = c.worker.CAS(key, uint32(flags), exptime, data, casUnique)
	}
	if noreply {
		return c.flushIfIdle()
	}
	return c.reply(res.String() + "\r\n")
}

func (c *Conn) cmdDelete(args [][]byte) error {
	if len(args) < 1 {
		return c.clientError("delete requires a key")
	}
	c.noteKey(args[0])
	if c.worker.Delete(args[0]) {
		return c.replyMaybe(args[1:], "DELETED\r\n")
	}
	return c.replyMaybe(args[1:], "NOT_FOUND\r\n")
}

func (c *Conn) cmdDelta(cmd string, args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("incr/decr require key and value")
	}
	delta, err := strconv.ParseUint(string(args[1]), 10, 64)
	if err != nil {
		return c.clientError("invalid numeric delta argument")
	}
	c.noteKey(args[0])
	var v uint64
	var res engine.DeltaResult
	if cmd == "incr" {
		v, res = c.worker.Incr(args[0], delta)
	} else {
		v, res = c.worker.Decr(args[0], delta)
	}
	switch res {
	case engine.DeltaOK:
		return c.replyMaybe(args[2:], strconv.FormatUint(v, 10)+"\r\n")
	case engine.DeltaNotFound:
		return c.replyMaybe(args[2:], "NOT_FOUND\r\n")
	default:
		return c.clientError("cannot increment or decrement non-numeric value")
	}
}

func (c *Conn) cmdTouch(args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("touch requires key and exptime")
	}
	exptime, err := strconv.ParseUint(string(args[1]), 10, 64)
	if err != nil {
		return c.clientError("invalid exptime argument")
	}
	c.noteKey(args[0])
	if c.worker.Touch(args[0], absoluteExptime(c.worker, exptime)) {
		return c.replyMaybe(args[2:], "TOUCHED\r\n")
	}
	return c.replyMaybe(args[2:], "NOT_FOUND\r\n")
}

func (c *Conn) cmdStats() error {
	s := c.worker.Stats()
	stat := func(k string, v uint64) { fmt.Fprintf(c.w, "STAT %s %d\r\n", k, v) }
	fmt.Fprintf(c.w, "STAT version %s\r\n", Version)
	stat("cmd_get", s.GetCmds)
	stat("get_hits", s.GetHits)
	stat("get_misses", s.GetMisses)
	stat("cmd_set", s.SetCmds)
	stat("delete_hits", s.DeleteHits)
	stat("delete_misses", s.DeleteMiss)
	stat("incr_hits", s.IncrHits)
	stat("incr_misses", s.IncrMiss)
	stat("cas_hits", s.CasHits)
	stat("cas_misses", s.CasMiss)
	stat("cas_badval", s.CasBadval)
	stat("cmd_touch", s.TouchCmds)
	stat("curr_items", s.CurrItems)
	stat("total_items", s.TotalItems)
	stat("bytes", s.CurrBytes)
	stat("evictions", s.Evictions)
	stat("expired_unfetched", s.Expired)
	stat("slabs_moved", s.Reassigned)
	stat("hash_expansions", s.HashExpands)
	stat("hash_items", s.HashItems)
	stat("hash_buckets", s.HashBuckets)
	stat("limit_maxbytes", s.SlabBytes)
	stat("shards", uint64(c.worker.NumShards()))
	stat("tm_transactions", s.STM.Commits)
	stat("tm_aborts", s.STM.Aborts)
	stat("tm_inflight_switch", s.STM.InFlightSwitch)
	stat("tm_start_serial", s.STM.StartSerial)
	stat("tm_abort_serial", s.STM.AbortSerial)
	stat("tm_watchdog_backoff", s.STM.WatchdogBackoffs)
	stat("tm_watchdog_serialize", s.STM.WatchdogSerializes)
	stat("tm_htm_capacity_aborts", s.STM.HTMCapacityAborts)
	stat("tm_htm_fallbacks", s.STM.HTMFallbacks)
	stat("tm_ro_fast_commit", s.STM.ROFastCommits)
	stat("tm_ro_upgrade", s.STM.ROUpgrades)
	stat("tx_commits", s.TxCommits)
	stat("tx_conflicts", s.TxConflicts)
	stat("tx_serial_fallbacks", s.TxSerialFallbacks)
	if c.connErrs != nil {
		stat("conn_errors_io", c.connErrs.IO.Load())
		stat("conn_errors_protocol", c.connErrs.Protocol.Load())
		stat("conn_errors_timeout", c.connErrs.Timeout.Load())
		stat("conn_flushes", c.connErrs.Flushes.Load())
		stat("conn_batched_replies", c.connErrs.BatchedReplies.Load())
		stat("conn_writev_batches", c.connErrs.WritevBatches.Load())
	}
	inuse, idle := BufferGauges()
	stat("conn_buffers_inuse", uint64(inuse))
	stat("conn_buffers_idle", uint64(idle))
	return c.reply("END\r\n")
}

// obsReport fetches the observability report, or replies with a bare
// "STAT tracing 0" block when tracing was never enabled on this cache.
func (c *Conn) obsReport(topOrecs int) (txobs.Report, bool, error) {
	o := c.worker.Observer()
	if o == nil {
		fmt.Fprintf(c.w, "STAT tracing 0\r\n")
		return txobs.Report{}, false, c.reply("END\r\n")
	}
	return o.Report(topOrecs), true, nil
}

// cmdStatsTM reports event-kind counts and attributed serialization/abort
// causes (`stats tm`). Cause strings contain spaces, so they ride in the
// value position after their count.
func (c *Conn) cmdStatsTM() error {
	// Core transaction counters come from the runtime stats, not the tracer,
	// so "stats tm" answers the read-only fast-path questions (§5 experiment
	// methodology) even with event tracing off.
	s := c.worker.Stats().STM
	fmt.Fprintf(c.w, "STAT commits %d\r\n", s.Commits)
	fmt.Fprintf(c.w, "STAT aborts %d\r\n", s.Aborts)
	fmt.Fprintf(c.w, "STAT ro_fast_commit %d\r\n", s.ROFastCommits)
	fmt.Fprintf(c.w, "STAT ro_upgrade %d\r\n", s.ROUpgrades)
	fmt.Fprintf(c.w, "STAT start_serial %d\r\n", s.StartSerial)
	fmt.Fprintf(c.w, "STAT inflight_switch %d\r\n", s.InFlightSwitch)
	// Per-domain breakdown: each shard owns an independent STM runtime, so
	// the merged counters above decompose exactly into these lines. Each
	// shard's live algorithm and swap counters ride along — under the
	// feedback controller these can differ per shard and change mid-run.
	if shards := c.worker.ShardStats(); len(shards) > 1 {
		rts := c.worker.Runtimes()
		fmt.Fprintf(c.w, "STAT shards %d\r\n", len(shards))
		for i, ss := range shards {
			fmt.Fprintf(c.w, "STAT shard_%d_commits %d\r\n", i, ss.Commits)
			fmt.Fprintf(c.w, "STAT shard_%d_aborts %d\r\n", i, ss.Aborts)
			fmt.Fprintf(c.w, "STAT shard_%d_ro_fast_commit %d\r\n", i, ss.ROFastCommits)
			if rts != nil {
				fmt.Fprintf(c.w, "STAT shard_%d_algorithm %s\r\n", i, rts[i].Algorithm())
			}
			fmt.Fprintf(c.w, "STAT shard_%d_algo_swaps %d\r\n", i, ss.AlgoSwaps)
		}
	}
	r, ok, err := c.obsReport(0)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	fmt.Fprintf(c.w, "STAT events %d\r\n", r.Events)
	for _, k := range sortedKeys(r.Kinds) {
		fmt.Fprintf(c.w, "STAT events_%s %d\r\n", k, r.Kinds[k])
	}
	for i, cc := range r.SerialCauses {
		fmt.Fprintf(c.w, "STAT serial_cause_%d %d %s\r\n", i, cc.Count, cc.Cause)
	}
	for i, cc := range r.AbortCauses {
		fmt.Fprintf(c.w, "STAT abort_cause_%d %d %s\r\n", i, cc.Count, cc.Cause)
	}
	return c.reply("END\r\n")
}

// cmdStatsTMCtl reports the feedback controller's view (`stats tmctl`): the
// per-shard mode ladder position, live algorithm, last-window signals and
// swap counters. A server without -tmctl replies with a bare disabled marker.
func (c *Conn) cmdStatsTMCtl() error {
	ctl := c.worker.Controller()
	if ctl == nil {
		fmt.Fprintf(c.w, "STAT tmctl 0\r\n")
		return c.reply("END\r\n")
	}
	st := ctl.Snapshot()
	fmt.Fprintf(c.w, "STAT tmctl 1\r\n")
	fmt.Fprintf(c.w, "STAT interval_ms %d\r\n", st.Interval.Milliseconds())
	fmt.Fprintf(c.w, "STAT degrades %d\r\n", st.Degrades)
	fmt.Fprintf(c.w, "STAT promotes %d\r\n", st.Promotes)
	fmt.Fprintf(c.w, "STAT retunes %d\r\n", st.Retunes)
	fmt.Fprintf(c.w, "STAT anomaly_trips %d\r\n", st.AnomalyTrips)
	for _, s := range st.Shards {
		fmt.Fprintf(c.w, "STAT shard_%d_mode %s\r\n", s.Shard, s.Mode)
		fmt.Fprintf(c.w, "STAT shard_%d_algorithm %s\r\n", s.Shard, s.Algorithm)
		fmt.Fprintf(c.w, "STAT shard_%d_pinned %d\r\n", s.Shard, boolInt(s.Pinned))
		fmt.Fprintf(c.w, "STAT shard_%d_abort_ratio %.3f\r\n", s.Shard, s.AbortRatio)
		fmt.Fprintf(c.w, "STAT shard_%d_ro_share %.3f\r\n", s.Shard, s.ROShare)
		fmt.Fprintf(c.w, "STAT shard_%d_calm_windows %d\r\n", s.Shard, s.CalmWins)
		fmt.Fprintf(c.w, "STAT shard_%d_heal_backoff_shift %d\r\n", s.Shard, s.HealShift)
		fmt.Fprintf(c.w, "STAT shard_%d_degrades %d\r\n", s.Shard, s.Degrades)
		fmt.Fprintf(c.w, "STAT shard_%d_promotes %d\r\n", s.Shard, s.Promotes)
		fmt.Fprintf(c.w, "STAT shard_%d_retunes %d\r\n", s.Shard, s.Retunes)
	}
	return c.reply("END\r\n")
}

// cmdStatsConflicts reports the conflict heat map (`stats conflicts`):
// aborts and abort-serial escalations by named structure, then the hottest
// ownership records.
func (c *Conn) cmdStatsConflicts() error {
	r, ok, err := c.obsReport(16)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	for _, l := range r.ConflictLabels {
		fmt.Fprintf(c.w, "STAT conflicts_%s %d\r\n", l.Label, l.Count)
	}
	for _, l := range r.SerialLabels {
		fmt.Fprintf(c.w, "STAT abort_serial_%s %d\r\n", l.Label, l.Count)
	}
	if r.Shards > 1 {
		for _, l := range r.ShardConflicts {
			fmt.Fprintf(c.w, "STAT conflicts_%s %d\r\n", l.Label, l.Count)
		}
		fmt.Fprintf(c.w, "STAT cross_shard_orec_conflicts %d\r\n", r.CrossShardOrecConflicts)
	}
	for _, oc := range r.HotOrecs {
		fmt.Fprintf(c.w, "STAT orec_%d %d %s\r\n", oc.Orec, oc.Count, oc.LastLabel)
	}
	return c.reply("END\r\n")
}

// cmdStatsLatency reports the phase and per-command latency histograms
// (`stats latency`), one line per histogram, quantiles in nanoseconds.
func (c *Conn) cmdStatsLatency() error {
	r, ok, err := c.obsReport(0)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	for _, k := range sortedKeys(r.Phases) {
		c.histLine("phase_"+k, "_ns", r.Phases[k])
	}
	for _, k := range sortedKeys(r.Commands) {
		c.histLine("cmd_"+k, "_ns", r.Commands[k])
	}
	return c.reply("END\r\n")
}

// cmdStatsSlowlog reports the request tracer's flight recorder
// (`stats slowlog`): mode and counters first, then one line per captured
// pathological span, newest last.
func (c *Conn) cmdStatsSlowlog() error {
	tr := c.worker.Tracer()
	if tr == nil {
		return c.reply("END\r\n")
	}
	fmt.Fprintf(c.w, "STAT trace_mode %s\r\n", tr.Mode())
	fmt.Fprintf(c.w, "STAT trace_requests %d\r\n", tr.Requests())
	fmt.Fprintf(c.w, "STAT trace_kept %d\r\n", tr.Kept())
	fmt.Fprintf(c.w, "STAT slowlog_len %d\r\n", tr.SlowlogLen())
	fmt.Fprintf(c.w, "STAT slowlog_dropped %d\r\n", tr.SlowlogDropped())
	fmt.Fprintf(c.w, "STAT est_p99_ns %d\r\n", tr.EstP99())
	for _, sp := range tr.Slowlog() {
		why, owner, label := sp.Keep, "", ""
		// Surface the last abort's attribution so the one-line view already
		// answers "who aborted me" without dumping the span tree.
		for i := len(sp.Events) - 1; i >= 0; i-- {
			ev := sp.Events[i]
			if ev.Kind == "abort" || ev.Kind == "abort_serial" {
				owner, label = ev.Owner, ev.Label
				break
			}
		}
		fmt.Fprintf(c.w,
			"STAT slow_%d cmd=%s conn=%d dur_us=%d aborts=%d max_retry=%d serialized=%d keep=%s owner=%s label=%s\r\n",
			sp.ID, sp.Cmd, sp.Conn, sp.DurNanos/1000, sp.Aborts, sp.MaxRetry,
			boolInt(sp.Serialized), why, orDash(owner), orDash(label))
	}
	return c.reply("END\r\n")
}

// orDash substitutes "-" for empty attribution fields so the slowlog lines
// stay whitespace-parseable.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys sorted (deterministic STAT ordering).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *Conn) cmdStatsSlabs() error {
	for _, s := range c.worker.SlabStats() {
		fmt.Fprintf(c.w, "STAT %d:chunk_size %d\r\n", s.Class, s.ChunkSize)
		fmt.Fprintf(c.w, "STAT %d:total_pages %d\r\n", s.Class, s.Pages)
		fmt.Fprintf(c.w, "STAT %d:used_chunks %d\r\n", s.Class, s.UsedChunks)
		fmt.Fprintf(c.w, "STAT %d:free_chunks %d\r\n", s.Class, s.FreeChunks)
	}
	return c.reply("END\r\n")
}

func (c *Conn) cmdFlushAll(args [][]byte) error {
	c.worker.FlushAll()
	return c.replyMaybe(args, "OK\r\n")
}

// ---------------------------------------------------------------------------
// helpers

// absoluteExptime converts relative expiry seconds (≤ 30 days) to absolute.
func absoluteExptime(w *engine.Worker, exptime uint64) uint64 {
	const thirtyDays = 60 * 60 * 24 * 30
	if exptime == 0 || exptime > thirtyDays {
		return exptime
	}
	return w.CacheNow() + exptime
}

func (c *Conn) readLine() ([]byte, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	line = bytes.TrimRight(line, "\r\n")
	return line, nil
}

func (c *Conn) discard(n int) {
	if n > 0 {
		io.CopyN(io.Discard, c.r, int64(n))
	}
}

func (c *Conn) reply(s string) error {
	c.w.WriteString(s)
	return c.flushIfIdle()
}

// flushIfIdle flushes buffered replies unless more pipelined input is already
// readable, in which case replies keep gathering and leave in one write when
// the pipeline drains (flushBeforeRead) or the write buffer fills.
func (c *Conn) flushIfIdle() error {
	if c.r.Buffered() > 0 {
		if c.connErrs != nil {
			c.connErrs.BatchedReplies.Add(1)
		}
		return nil
	}
	return c.flushNow()
}

// flushNow writes any buffered replies to the transport. A pooled
// connection with buffers released (parked or torn down) has nothing
// buffered by definition.
func (c *Conn) flushNow() error {
	if c.w == nil || c.w.Buffered() == 0 {
		return nil
	}
	if c.connErrs != nil {
		c.connErrs.Flushes.Add(1)
	}
	return c.w.Flush()
}

// replyMaybe suppresses the reply when the trailing argument is "noreply".
func (c *Conn) replyMaybe(rest [][]byte, s string) error {
	if len(rest) > 0 && string(rest[len(rest)-1]) == "noreply" {
		return c.flushIfIdle()
	}
	return c.reply(s)
}

func (c *Conn) clientError(msg string) error {
	return c.replyError(&ClientError{Msg: msg, Status: StatusInvalidArgs})
}
