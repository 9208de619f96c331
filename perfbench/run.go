package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
)

const (
	// instances is how many servers a run sets up and measures one after
	// another; every end-to-end metric is a median over them.
	instances = 3
	// closedShare is the share of --seconds given to the closed loops; the
	// open loops get the rest.
	closedShare = 0.3
	// minP99Samples: a p99 must rest on at least this many samples, so
	// that at least ten lie beyond it.
	minP99Samples = 1000
	// maxGenLateUs bounds the open-loop generator's p99 wake-up lateness. A
	// run beyond it measured the generator, not the server, and is invalid.
	// On a 2-CPU host the p99 ran from 0.05 to 3 ms with the server busy
	// beside the generator; ten times the usual worst marks a generator that
	// was starved, not one that shared a CPU.
	maxGenLateUs = 10_000
)

// phase is what one measured phase produced.
type phase struct {
	t       tally
	elapsed time.Duration
	lat     [numKinds][]sample // open loop, in due-time order per connection
	late    []float64          // µs the generator woke past a due time
	cpu     time.Duration      // server CPU time, closed loop
}

// sample is one open-loop request: when it was due and how long after that
// its reply arrived, in µs (+Inf when it failed).
type sample struct {
	due time.Duration
	us  float64
}

// conn is one load connection: its client, stream and checker.
type conn struct {
	addr   string
	c      *client.Client
	stream *Stream
	ck     *checker
	p      prepared
}

// redial replaces the connection; a failed dial leaves c nil, and the next
// send counts its request as failed and dials again.
func (cn *conn) redial() {
	if cn.c != nil {
		cn.c.Close()
	}
	cn.c, _ = client.Dial(cn.addr, client.WithMaxTxRetries(maxTxAttempts))
}

// send runs one op and returns when its reply completed.
func (cn *conn) send(op *Op) (time.Time, error) {
	cn.ck.prepare(&cn.p, op)
	cn.ck.t.ops[op.Kind]++
	err := errNotConnected
	if cn.c != nil {
		err = clientTarget{cn.c}.do(&cn.p, cn.ck)
	}
	if err != nil {
		cn.ck.t.failed++
		cn.redial()
		return time.Now(), err
	}
	return cn.ck.t1, nil
}

var errNotConnected = errors.New("not connected")

func (cn *conn) takeTally() tally {
	t := cn.ck.t
	cn.ck.t = tally{}
	return t
}

// closedLoop: each connection sends its next request as soon as the previous
// reply arrives, for d.
func closedLoop(conns []*conn, d time.Duration) phase {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := cn.stream.Next()
				cn.send(&op)
			}
		}(cn)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for _, cn := range conns {
		t := cn.takeTally()
		ph.t.add(&t)
	}
	return ph
}

func closeConns(conns []*conn) {
	for _, cn := range conns {
		if cn != nil && cn.c != nil {
			cn.c.Close()
		}
	}
}

// openLoop: requests are due on a seeded Poisson schedule at rate per
// second over d, split evenly across the connections. Each request is timed
// from when it was due, so a stall charges every request queued behind it.
func openLoop(conns []*conn, seed uint64, inst int, rate float64, d time.Duration) (phase, error) {
	type connOut struct {
		lat  [numKinds][]sample
		late []float64
		err  error
	}
	outs := make([]connOut, len(conns))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i, cn := range conns {
		arr := Arrivals(seed, inst*len(conns)+i, rate/float64(len(conns)), d)
		wg.Add(1)
		go func(cn *conn, out *connOut) {
			defer wg.Done()
			tm, err := newTimer()
			if err != nil {
				out.err = err
				return
			}
			defer tm.Close()
			for _, due := range arr {
				op := cn.stream.Next()
				dueAt := start.Add(due)
				if wait := time.Until(dueAt); wait > 0 {
					if err := tm.sleep(wait); err != nil {
						out.err = err
						return
					}
					out.late = append(out.late, float64(time.Since(dueAt))/1e3)
				}
				done, err := cn.send(&op)
				us := float64(done.Sub(dueAt)) / 1e3
				if err != nil {
					us = math.Inf(1)
				}
				out.lat[op.Kind] = append(out.lat[op.Kind], sample{due, us})
			}
		}(cn, &outs[i])
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for i, cn := range conns {
		if outs[i].err != nil {
			return ph, outs[i].err
		}
		t := cn.takeTally()
		ph.t.add(&t)
		for k := range ph.lat {
			ph.lat[k] = append(ph.lat[k], outs[i].lat[k]...)
		}
		ph.late = append(ph.late, outs[i].late...)
	}
	return ph, nil
}

// preload stores the workload's initial state: counters, accounts, then the
// data keys from coldest to hottest.
func preload(addr string, wl *Workload, writer int) error {
	extra := wl.Counters + wl.Accounts
	buf := make([]byte, 0, wl.ValueSize)
	return preloadPipelined(addr, extra+wl.Preload, func(i int) (string, []byte) {
		switch {
		case i < wl.Counters:
			return counterName(i), []byte("0")
		case i < extra:
			return accountName(i - wl.Counters), accountValue(accountStart)
		}
		k := wl.Preload - 1 - (i - extra)
		buf = makeValue(buf, keyName(k), writer, 1, wl.ValueSize)
		return keyName(k), buf
	})
}

// setUp starts the server and loads the workload's initial state.
func setUp(cfg runConfig, writer int) (*child, error) {
	srv, err := startChild(cfg.serverBin)
	if err != nil {
		return nil, err
	}
	if err := preload(srv.addr, cfg.wl, writer); err != nil {
		srv.stop()
		return nil, err
	}
	if cfg.wl.WantEvictions {
		st, err := srv.ctl.stats("")
		if err == nil {
			var ev int64
			if ev, err = statInt(st, "evictions"); err == nil && ev == 0 {
				err = fmt.Errorf("preload of %d keys caused no evictions; the run would not start in eviction steady state", cfg.wl.Preload)
			}
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
	}
	return srv, nil
}

// checkCounts compares the server's stats since the last reset with the
// client-side tally of the same phase.
func checkCounts(name string, st map[string]string, t *tally, bad *badLog) {
	for _, c := range []struct {
		stat string
		want int64
	}{{"cmd_get", t.cmdGet}, {"get_hits", t.getHits}, {"get_misses", t.getMisses}, {"cmd_set", t.cmdSet}} {
		got, err := statInt(st, c.stat)
		if err != nil {
			bad.add("%s phase: %v", name, err)
		} else if got != c.want {
			bad.add("%s phase: server %s=%d, client counted %d", name, c.stat, got, c.want)
		}
	}
}

// instance is what one server instance contributed to a run.
type instance struct {
	setup      time.Duration
	closed     phase
	open       phase
	sysr, sysw int64
	genCPU     time.Duration
	evst       map[string]string
	rss        int64
	banner     string
	shards     int64
}

// runInstance sets up a fresh server and measures it: its share of the
// closed loop, then of the open loop, then the end-of-instance checks.
// after, when non-nil, runs against the server before it is stopped.
func runInstance(cfg runConfig, idx int, streams []*Stream, v *verifier, closedD, openD time.Duration, after func(*child) error) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	s, err := setUp(cfg, len(streams))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	in.setup = time.Since(t0)
	defer s.stop()
	in.banner = s.banner
	conns := make([]*conn, len(streams))
	defer closeConns(conns)
	for i := range conns {
		// A fresh checker per server: incr replies rise per server, and a
		// new server's counters start from the preload again.
		conns[i] = &conn{addr: s.addr, stream: streams[i], ck: newChecker(v)}
		if conns[i].redial(); conns[i].c == nil {
			return nil, fmt.Errorf("connect to %s failed", s.addr)
		}
	}
	st, err := s.ctl.stats("")
	if err != nil {
		return nil, err
	}
	if in.shards, err = statInt(st, "shards"); err != nil {
		return nil, err
	}

	// Closed loop.
	if err := s.ctl.resetStats(); err != nil {
		return nil, err
	}
	cpu0, err := s.procCPU()
	if err != nil {
		return nil, err
	}
	r0, w0, err := s.procIO()
	if err != nil {
		return nil, err
	}
	in.closed = closedLoop(conns, closedD)
	cpu1, err := s.procCPU()
	if err != nil {
		return nil, err
	}
	r1, w1, err := s.procIO()
	if err != nil {
		return nil, err
	}
	in.closed.cpu, in.sysr, in.sysw = cpu1-cpu0, r1-r0, w1-w0
	if st, err = s.ctl.stats(""); err != nil {
		return nil, err
	}
	checkCounts("closed-loop", st, &in.closed.t, v.bad)

	// Open loop.
	if err := s.ctl.resetStats(); err != nil {
		return nil, err
	}
	var ru0, ru1 syscall.Rusage
	// getrusage fails only for a bad "who" or a bad address.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	if in.open, err = openLoop(conns, cfg.seed, idx, cfg.wl.Rate, openD); err != nil {
		return nil, err
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	in.genCPU = time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	if st, err = s.ctl.stats(""); err != nil {
		return nil, err
	}
	checkCounts("open-loop", st, &in.open.t, v.bad)
	if in.evst, err = s.ctl.stats("eventloop"); err != nil {
		return nil, err
	}

	if err := checkConservation(s.addr, cfg.wl, v.bad); err != nil {
		return nil, err
	}
	if in.rss, err = s.procRSS(); err != nil {
		return nil, err
	}
	if after != nil {
		if err := after(s); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func run(cfg runConfig) (*result, *runMeta, error) {
	wl := cfg.wl
	nconn := runtime.NumCPU()
	meta := &runMeta{
		Workload: wl.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Nproc: nconn, Conns: nconn,
		GoVersion: runtime.Version(), Commit: treeDigest(cfg.root), Rate: wl.Rate,
		Samples: map[string]int{}, Chunks: map[string]int{}, Quantiles: map[string]map[string]float64{},
	}
	bad := &badLog{}
	v := newVerifier(wl, nconn, bad)
	for k := 0; k < wl.Preload; k++ {
		v.issue(nconn, k, 1)
	}
	streams := make([]*Stream, nconn)
	for i := range streams {
		streams[i] = newStream(wl, cfg.seed, i)
	}
	total := time.Duration(cfg.seconds) * time.Second
	closedD := time.Duration(float64(total) * closedShare / instances)
	openD := total/instances - closedD

	// Every run measures several server instances, each set up from
	// scratch, and reports medians over them (or over latency chunks pooled
	// from all of them): on a 2-CPU host one instance's closed-loop rate
	// moved by ±15% from the next one's.
	var ins []*instance
	layer := map[string]metric{}
	for i := 0; i < instances; i++ {
		var after func(*child) error
		if cfg.trace && i == instances-1 {
			after = func(s *child) error {
				lm, lmeta, err := runLadder(cfg, branchOf(s.banner), s.addr, v)
				if err != nil {
					return fmt.Errorf("traced ladder: %w", err)
				}
				for k, m := range lm {
					layer[k] = m
				}
				meta.Ladder = lmeta
				return nil
			}
		}
		in, err := runInstance(cfg, i, streams, v, closedD, openD, after)
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, in)
	}

	meta.Branch = branchOf(ins[0].banner)
	if _, tr, ok := strings.Cut(ins[0].banner, ", "); ok {
		meta.Transport = strings.TrimSuffix(strings.TrimSuffix(tr, ")"), " transport")
	}
	meta.Shards = ins[0].shards
	var (
		closed, open     tally
		rates, cpus, rss []float64
		lat              [numKinds][]sample
		late             []float64
		sysr, sysw       int64
		genCPU           time.Duration
		closedS, openS   float64
	)
	for i, in := range ins {
		meta.Setups = append(meta.Setups, in.setup.Seconds())
		closed.add(&in.closed.t)
		open.add(&in.open.t)
		n := float64(in.closed.t.requests())
		rates = append(rates, n/in.closed.elapsed.Seconds())
		cpus = append(cpus, float64(in.closed.cpu)/1e3/n)
		rss = append(rss, float64(in.rss)/(1<<20))
		for k := range lat {
			// Instances follow one another on the pooled time axis, so a
			// chunk never mixes samples from far apart in one instance.
			for _, x := range in.open.lat[k] {
				lat[k] = append(lat[k], sample{x.due + time.Duration(i)*openD, x.us})
			}
		}
		late = append(late, in.open.late...)
		sysr, sysw = sysr+in.sysr, sysw+in.sysw
		genCPU += in.genCPU
		closedS += in.closed.elapsed.Seconds()
		openS += in.open.elapsed.Seconds()
	}
	meta.ClosedS, meta.OpenS = closedS, openS
	meta.InstanceRates = rates
	attempted := closed.requests() + open.requests()
	failed := closed.failed + open.failed
	meta.FailedFrac = float64(failed) / float64(attempted)
	meta.Counters = map[string]int64{
		"closed_requests": closed.requests(), "open_requests": open.requests(),
		"tx_attempts": closed.txAttempts + open.txAttempts, "tx_commits": closed.txCommits + open.txCommits,
		"server_syscr": sysr, "server_syscw": sysw,
	}

	// Only metrics that held steady from seed to seed on a 2-CPU host are
	// end-to-end (gated); the timing metrics drifted with the host by more
	// than the largest allowed bound and are reported with the per-layer
	// ones. WORKLOADS.md gives the measured spreads.
	creq := float64(closed.requests())
	e2e := map[string]metric{
		"hit_ratio":              {float64(closed.getHits+open.getHits) / float64(closed.cmdGet+open.cmdGet), "ratio"},
		"server_rss_mb":          {median(rss), "MB"},
		"server.syscalls_per_op": {float64(sysr+sysw) / creq, "1/op"},
		"server.writes_per_op":   {float64(sysw) / creq, "1/op"},
		"setup_s":                {median(meta.Setups), "s"},
	}
	layer["ops_per_s"] = metric{median(rates), "1/s"}
	layer["cpu_us_per_op"] = metric{median(cpus), "us"}
	for _, q := range []struct {
		name string
		k    Kind
		p50  bool
	}{
		{"get", KGet, true}, {"set", KSet, true}, {"mget", KMGet, true}, {"incr", KIncr, false}, {"tx", KTx, false},
	} {
		xs := lat[q.k]
		meta.Samples[q.name] = len(xs)
		if len(xs) < minP99Samples {
			meta.Invalid = append(meta.Invalid, fmt.Sprintf("%s_p99_us rests on %d samples, below %d", q.name, len(xs), minP99Samples))
		}
		p50, _ := chunkedQuantile(xs, 0.50)
		p99, chunks := chunkedQuantile(xs, 0.99)
		meta.Chunks[q.name] = chunks
		if q.p50 {
			layer[q.name+"_p50_us"] = metric{finite(p50), "us"}
		}
		layer[q.name+"_p99_us"] = metric{finite(p99), "us"}
		all := make([]float64, len(xs))
		for i := range xs {
			all[i] = xs[i].us
		}
		sort.Float64s(all)
		meta.Quantiles[q.name] = map[string]float64{
			"p50": finite(quantile(all, 0.5)), "p90": finite(quantile(all, 0.9)), "p99": finite(quantile(all, 0.99)),
			"p99.9": finite(quantile(all, 0.999)), "max": finite(quantile(all, 1)),
		}
	}

	sort.Float64s(late)
	lateP99 := quantile(late, 0.99)
	meta.Quantiles["gen_late"] = map[string]float64{
		"p50": quantile(late, 0.5), "p99": lateP99, "p99.9": quantile(late, 0.999), "max": quantile(late, 1),
	}
	if lateP99 > maxGenLateUs {
		meta.Invalid = append(meta.Invalid, fmt.Sprintf("generator fell behind: p99 wake-up lateness %.0fµs > %dµs", lateP99, maxGenLateUs))
	}
	layer["gen.late_p99_us"] = metric{lateP99, "us"}
	layer["gen.cpu_frac"] = metric{genCPU.Seconds() / openS / float64(runtime.NumCPU()), "ratio"}
	last := ins[len(ins)-1]
	if err := transportMetrics(last.evst, last.open.t.cmds, layer); err != nil {
		return nil, nil, err
	}

	meta.Violations = bad.first
	if n := bad.count(); n > len(bad.first) {
		meta.Violations = append(meta.Violations, fmt.Sprintf("… %d violations in all", n))
	}
	res := &result{
		Correct:   bad.count() == 0 && len(meta.Invalid) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   e2e,
	}
	if cfg.trace {
		res.Metrics = layer
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			meta.Invalid = append(meta.Invalid, "a metric is not a finite number")
			break
		}
	}
	return res, meta, nil
}

// branchOf extracts the branch from the server's "serving on" log line.
func branchOf(banner string) string {
	_, rest, _ := strings.Cut(banner, "(branch ")
	b, _, _ := strings.Cut(rest, ",")
	return b
}

// chunkedQuantile cuts one request kind's samples, in due-time order, into
// as many consecutive chunks of at least minP99Samples as there are, takes
// the q-quantile of each, and returns their median and the chunk count. Each
// p99 so rests on at least 1000 samples, and a stall that hits one stretch
// of the run moves one chunk's value, not the result.
func chunkedQuantile(xs []sample, q float64) (float64, int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i].due < xs[j].due })
	n := len(xs)
	c := max(n/minP99Samples, 1)
	vals := make([]float64, 0, c)
	for i := 0; i < c; i++ {
		chunk := make([]float64, 0, n/c+1)
		for _, x := range xs[i*n/c : (i+1)*n/c] {
			chunk = append(chunk, x.us)
		}
		sort.Float64s(chunk)
		vals = append(vals, quantile(chunk, q))
	}
	return median(vals), c
}

// finite maps a failed request's +Inf latency, should it land on a
// percentile, to a large finite number JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return 1e12
	}
	return x
}

// transportMetrics reads the event loop's dispatch telemetry for the open
// loop (the phase after the last stats reset).
func transportMetrics(st map[string]string, cmds int64, layer map[string]metric) error {
	if st["eventloop"] != "1" {
		// The classic transport has no dispatch queue: no wait, no bursts.
		layer["server.dispatch_wait_p50_us"] = metric{0, "us"}
		layer["server.dispatch_wait_p99_us"] = metric{0, "us"}
		layer["server.worker_busy_frac"] = metric{0, "ratio"}
		layer["server.burst_ops_mean"] = metric{0, "ops"}
		return nil
	}
	d := st["dispatch_ns"]
	p50, err := histField(d, "p50_ns")
	if err != nil {
		return err
	}
	p99, err := histField(d, "p99_ns")
	if err != nil {
		return err
	}
	bursts, err := histField(st["burst_ops"], "count")
	if err != nil {
		return err
	}
	var busy []float64
	for i := 0; ; i++ {
		s, ok := st["worker_"+strconv.Itoa(i)+"_busy"]
		if !ok {
			break
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		busy = append(busy, f)
	}
	mean := 0.0
	for _, b := range busy {
		mean += b / float64(len(busy))
	}
	layer["server.dispatch_wait_p50_us"] = metric{p50 / 1e3, "us"}
	layer["server.dispatch_wait_p99_us"] = metric{p99 / 1e3, "us"}
	layer["server.worker_busy_frac"] = metric{mean, "ratio"}
	if bursts > 0 {
		layer["server.burst_ops_mean"] = metric{float64(cmds) / bursts, "ops"}
	}
	return nil
}

// checkConservation reads every transfer account: transfers move units
// between accounts, so their total must equal the preloaded total.
func checkConservation(addr string, wl *Workload, bad *badLog) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	keys := make([]string, wl.Accounts)
	for i := range keys {
		keys[i] = accountName(i)
	}
	items, err := c.Gets(keys...)
	if err != nil {
		return fmt.Errorf("read accounts: %w", err)
	}
	if len(items) != wl.Accounts {
		bad.add("only %d of %d transfer accounts present at the end", len(items), wl.Accounts)
		return nil
	}
	var sum int64
	for _, it := range items {
		n, err := strconv.ParseInt(string(it.Value), 10, 64)
		if err != nil {
			bad.add("account %s holds %q", it.Key, it.Value)
			return nil
		}
		sum += n
	}
	if want := int64(wl.Accounts) * accountStart; sum != want {
		bad.add("transfers did not conserve: accounts total %d, want %d", sum, want)
	}
	return nil
}

// sourceHash hashes the tree's Go sources and module files.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
