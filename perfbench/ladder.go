package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stm"
)

// The traced run replays one op-stream prefix through a ladder of the
// repository's public entry points, each rung calling the one below it:
//
//	engine            engine.Worker in-process (server default branch)
//	engine.baseline   the same on the lock-based baseline branch
//	protocol          protocol.Conn over net.Pipe, fed pre-encoded requests
//	client            client.Client over net.Pipe to a protocol.Conn
//	server.eventloop  client.Client over loopback TCP to server.ListenConfig
//	server.classic    the same with the goroutine-per-connection transport
//	e2e               client.Client to the child server, untraced
//
// A layer's self time is its rung's median minus the next lower rung's
// median on the same ops. Spans go to memory and are written out at the end.

const ladderRounds = 3

var rungNames = []string{"engine.baseline", "engine", "protocol", "client", "server.eventloop", "server.classic", "e2e"}

const (
	rBaseline = iota
	rEngine
	rProtocol
	rClient
	rEventLoop
	rClassic
	rE2E
	numRungs
)

type rung struct {
	t      target
	ck     *checker
	traced bool

	dur     [numKinds][]float64 // ns
	ops     int64
	mallocs uint64
	bytes   uint64
}

// span is one timed call, or one rung pass (Req -1) that parents them.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type ladderMeta struct {
	Ops        int                           `json:"ops"`
	Rounds     int                           `json:"rounds"`
	MedianNs   map[string]map[string]float64 `json:"median_ns"`
	AllocsOp   map[string]float64            `json:"allocs_per_op"`
	Noisy      []string                      `json:"noisy,omitempty"`
	SpanFile   string                        `json:"span_file"`
	Spans      int                           `json:"spans"`
	Contention map[string]uint64             `json:"contention"`
}

// countingConn counts the protocol's writes to its transport (flushes).
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// engineConfig mirrors cmd/memcached's flag defaults (-m 64, -hashpower 16,
// shards = GOMAXPROCS, slab automove on) on the given branch.
func engineConfig(branch string) (engine.Config, error) {
	b, err := engine.ParseBranch(branch)
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{Branch: b, MemLimit: 64 << 20, HashPower: 16, Automove: true}, nil
}

// preloadEngine stores the same initial state set-up gives the child server.
func preloadEngine(w *engine.Worker, wl *Workload, writer int) error {
	for i := 0; i < wl.Counters; i++ {
		if r := w.Set([]byte(counterName(i)), 0, 0, []byte("0")); r != engine.Stored {
			return fmt.Errorf("preload %s: %v", counterName(i), r)
		}
	}
	for i := 0; i < wl.Accounts; i++ {
		if r := w.Set([]byte(accountName(i)), 0, 0, accountValue(accountStart)); r != engine.Stored {
			return fmt.Errorf("preload %s: %v", accountName(i), r)
		}
	}
	var buf []byte
	for k := wl.Preload - 1; k >= 0; k-- {
		buf = makeValue(buf, keyName(k), writer, 1, wl.ValueSize)
		if r := w.Set([]byte(keyName(k)), 0, 0, buf); r != engine.Stored {
			return fmt.Errorf("preload %s: %v", keyName(k), r)
		}
	}
	return nil
}

func newCache(branch string, wl *Workload, writer int) (*engine.Cache, error) {
	conf, err := engineConfig(branch)
	if err != nil {
		return nil, err
	}
	c := engine.New(conf)
	c.Start()
	if err := preloadEngine(c.NewWorker(), wl, writer); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// pipeProtocol serves a protocol.Conn on one end of a pipe and returns the
// other end; the returned stop closes both and waits for the server side.
func pipeProtocol(w *engine.Worker) (cli net.Conn, srv *countingConn, stop func()) {
	a, b := net.Pipe()
	srv = &countingConn{Conn: b}
	pc := protocol.NewConn(w, srv)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = pc.Serve() // ends with the pipe
	}()
	return a, srv, func() {
		a.Close()
		b.Close()
		wg.Wait()
	}
}

func runLadder(cfg runConfig, branch, childAddr string, childV *verifier) (map[string]metric, *ladderMeta, error) {
	wl := cfg.wl
	writers := childV.writers
	bad := childV.bad
	// The rungs replay the first LadderOps ops; the contention pass takes the
	// next LadderOps, whose keys the rungs have not already written, so its
	// eviction and hit counts see the stream as the server would.
	all := Interleave(wl, cfg.seed, writers, 2*wl.LadderOps)
	ops, fresh := all[:wl.LadderOps], all[wl.LadderOps:]

	def, err := newCache(branch, wl, writers)
	if err != nil {
		return nil, nil, err
	}
	defer def.Stop()
	base, err := newCache("baseline", wl, writers)
	if err != nil {
		return nil, nil, err
	}
	defer base.Stop()
	vDef, vBase := newVerifier(wl, writers, bad), newVerifier(wl, writers, bad)
	for k := 0; k < wl.Preload; k++ {
		vDef.issue(writers, k, 1)
		vBase.issue(writers, k, 1)
	}

	rungs := make([]*rung, numRungs)
	rungs[rBaseline] = &rung{t: engineTarget{base.NewWorker()}, ck: newChecker(vBase), traced: true}
	rungs[rEngine] = &rung{t: engineTarget{def.NewWorker()}, ck: newChecker(vDef), traced: true}

	pcli, pcount, pstop := pipeProtocol(def.NewWorker())
	defer pstop()
	pt := &protoTarget{r: bufio.NewReader(pcli), w: bufio.NewWriter(pcli)}
	rungs[rProtocol] = &rung{t: pt, ck: newChecker(vDef), traced: true}

	ccli, _, cstop := pipeProtocol(def.NewWorker())
	defer cstop()
	cc := client.NewFromConn(ccli, client.WithMaxTxRetries(maxTxAttempts))
	rungs[rClient] = &rung{t: clientTarget{cc}, ck: newChecker(vDef), traced: true}

	for _, x := range []struct {
		idx int
		ev  bool
	}{{rEventLoop, true}, {rClassic, false}} {
		s, err := server.ListenConfig(def, server.Config{Addr: "127.0.0.1:0", EventLoop: x.ev})
		if err != nil {
			return nil, nil, err
		}
		defer s.Close()
		c, err := client.Dial(s.Addr(), client.WithMaxTxRetries(maxTxAttempts))
		if err != nil {
			return nil, nil, err
		}
		defer c.Close()
		rungs[x.idx] = &rung{t: clientTarget{c}, ck: newChecker(vDef), traced: true}
	}
	ec, err := client.Dial(childAddr, client.WithMaxTxRetries(maxTxAttempts))
	if err != nil {
		return nil, nil, err
	}
	defer ec.Close()
	rungs[rE2E] = &rung{t: clientTarget{ec}, ck: newChecker(childV)}

	for _, rg := range rungs {
		for k := range rg.dur {
			rg.dur[k] = make([]float64, 0, len(ops))
		}
	}

	// Replay: each round takes the next chunk of ops through every rung, so
	// drift in machine state spreads evenly over the rungs.
	spans := make([]span, 0, numRungs*(len(ops)+ladderRounds))
	var spanNames [numRungs][numKinds]string
	for ri := range spanNames {
		for k := range spanNames[ri] {
			spanNames[ri][k] = rungNames[ri] + "." + Kind(k).String()
		}
	}
	base0 := time.Now()
	var flushes, protoOps int64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < ladderRounds; r++ {
		first := r * len(ops) / ladderRounds
		chunk := ops[first : (r+1)*len(ops)/ladderRounds]
		for ri, rg := range rungs {
			// Requests are built before the pass, so the pass's timings and
			// allocation counts hold only the rung's own work (and checks
			// that allocate nothing).
			preps := make([]prepared, len(chunk))
			for i := range chunk {
				rg.ck.prepare(&preps[i], &chunk[i])
				if pt, ok := rg.t.(*protoTarget); ok {
					pt.encode(&preps[i])
				}
			}
			passID := uint32(len(spans) + 1)
			passStart := time.Since(base0).Nanoseconds()
			if rg.traced {
				spans = append(spans, span{ID: passID, Req: -1, Name: rungNames[ri]})
			}
			w0 := pcount.writes.Load()
			runtime.ReadMemStats(&ms0)
			var n int64
			for i := range preps {
				p := &preps[i]
				err := rg.t.do(p, rg.ck)
				if err == errSkip {
					continue
				}
				if err != nil {
					bad.add("ladder rung %s: %v", rungNames[ri], err)
					continue
				}
				n++
				k := p.op.Kind
				rg.dur[k] = append(rg.dur[k], float64(rg.ck.t1.Sub(rg.ck.t0)))
				if rg.traced {
					spans = append(spans, span{
						ID: uint32(len(spans) + 1), Parent: passID, Req: int32(first + i), Name: spanNames[ri][k],
						Start: rg.ck.t0.Sub(base0).Nanoseconds(), End: rg.ck.t1.Sub(base0).Nanoseconds(),
					})
				}
			}
			runtime.ReadMemStats(&ms1)
			rg.ops += n
			rg.mallocs += ms1.Mallocs - ms0.Mallocs
			rg.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			if ri == rProtocol {
				flushes += pcount.writes.Load() - w0
				protoOps += n
			}
			if rg.traced {
				spans[passID-1].Start, spans[passID-1].End = passStart, time.Since(base0).Nanoseconds()
			}
		}
	}

	cont, err := contentionPass(def, fresh, writers, vDef)
	if err != nil {
		return nil, nil, err
	}

	meta := &ladderMeta{
		Ops: len(ops), Rounds: ladderRounds,
		MedianNs: map[string]map[string]float64{}, AllocsOp: map[string]float64{},
		Contention: cont,
	}
	med := make([][numKinds]float64, numRungs)
	allocs := make([]float64, numRungs)
	for ri, rg := range rungs {
		meta.MedianNs[rungNames[ri]] = map[string]float64{}
		for k := Kind(0); k < numKinds; k++ {
			med[ri][k] = median(rg.dur[k])
			if len(rg.dur[k]) > 0 {
				meta.MedianNs[rungNames[ri]][k.String()] = med[ri][k]
			}
		}
		if rg.ops > 0 {
			allocs[ri] = float64(rg.mallocs) / float64(rg.ops)
			meta.AllocsOp[rungNames[ri]] = allocs[ri]
		}
	}

	// Ladder sanity: every op's median must rise up the ladder.
	for k := Kind(0); k < numKinds; k++ {
		for _, chain := range [][]int{{rEngine, rProtocol, rClient, rEventLoop}, {rClient, rClassic}} {
			for i := 1; i < len(chain); i++ {
				lo, hi := chain[i-1], chain[i]
				if len(rungs[lo].dur[k]) > 0 && med[hi][k] < med[lo][k] {
					meta.Noisy = append(meta.Noisy, fmt.Sprintf("%s: %s median %.0fns below %s %.0fns",
						k, rungNames[hi], med[hi][k], rungNames[lo], med[lo][k]))
				}
			}
		}
	}

	// mixed weighs per-kind medians by the workload's mix.
	mixed := func(ri int) float64 {
		s, tot := 0.0, 0.0
		for k := Kind(0); k < numKinds; k++ {
			if len(rungs[ri].dur[k]) > 0 {
				s += wl.Mix[k] * med[ri][k]
				tot += wl.Mix[k]
			}
		}
		return s / tot
	}
	m := map[string]metric{}
	ns := func(name string, v float64) { m[name] = metric{v, "ns"} }
	for _, k := range []Kind{KGet, KMGet, KSet, KIncr, KTx} {
		ns("engine."+k.String()+"_ns", med[rEngine][k])
	}
	m["engine.allocs_per_op"] = metric{allocs[rEngine], "1/op"}
	m["engine.bytes_per_op"] = metric{float64(rungs[rEngine].bytes) / float64(rungs[rEngine].ops), "B/op"}
	for _, k := range []Kind{KGet, KSet, KMGet} {
		ns("stm."+k.String()+"_overhead_ns", med[rEngine][k]-med[rBaseline][k])
		ns("protocol."+k.String()+"_self_ns", med[rProtocol][k]-med[rEngine][k])
		ns("client."+k.String()+"_self_ns", med[rClient][k]-med[rProtocol][k])
	}
	m["protocol.allocs_per_op"] = metric{allocs[rProtocol] - allocs[rEngine], "1/op"}
	m["protocol.flushes_per_op"] = metric{float64(flushes) / float64(protoOps), "1/op"}
	m["client.allocs_per_op"] = metric{allocs[rClient] - allocs[rProtocol], "1/op"}
	ns("server.eventloop.self_ns", mixed(rEventLoop)-mixed(rClient))
	ns("server.classic.self_ns", mixed(rClassic)-mixed(rClient))
	m["server.eventloop.allocs_per_op"] = metric{allocs[rEventLoop] - allocs[rClient], "1/op"}
	m["server.classic.allocs_per_op"] = metric{allocs[rClassic] - allocs[rClient], "1/op"}
	m["trace.overhead_frac"] = metric{mixed(rEventLoop)/mixed(rE2E) - 1, "ratio"}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["engine.evictions_per_set"] = metric{frac(cont["evictions"], cont["sets"]), "1/op"}
	m["engine.hit_ratio"] = metric{frac(cont["hits"], cont["gets"]), "ratio"}
	m["engine.tx_conflict_frac"] = metric{frac(cont["tx_attempts"]-cont["tx_commits"], cont["tx_attempts"]), "ratio"}
	m["engine.tx_serial_fallback_frac"] = metric{frac(cont["tx_serial_fallbacks"], cont["tx_commits"]), "ratio"}
	m["stm.aborts_per_commit"] = metric{frac(cont["stm_aborts"], cont["stm_commits"]), "1/op"}
	m["stm.serial_frac"] = metric{frac(cont["stm_serial_commits"], cont["stm_commits"]), "ratio"}
	m["stm.ro_fast_frac"] = metric{frac(cont["stm_ro_fast_commits"], cont["stm_commits"]), "ratio"}

	if meta.SpanFile, err = writeSpans(cfg, spans); err != nil {
		return nil, nil, err
	}
	meta.Spans = len(spans)
	return m, meta, nil
}

// contentionPass replays each writer's ops on its own engine worker, all
// writers at once, and reports the engine's and STM's contention counters.
func contentionPass(c *engine.Cache, ops []Op, writers int, v *verifier) (map[string]uint64, error) {
	probe := c.NewWorker()
	s0, sh0 := probe.Stats(), sumSTM(c.ShardStats())
	cks := make([]*checker, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		cks[wi] = newChecker(v)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			t := engineTarget{c.NewWorker()}
			var p prepared
			for i := range ops {
				if ops[i].Writer != wi {
					continue
				}
				cks[wi].prepare(&p, &ops[i])
				if err := t.do(&p, cks[wi]); err != nil && err != errSkip {
					errs[wi] = err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("contention pass: %w", err)
		}
	}
	s1, sh1 := probe.Stats(), sumSTM(c.ShardStats())
	var t tally
	for _, ck := range cks {
		t.add(&ck.t)
	}
	return map[string]uint64{
		"sets":                uint64(t.cmdSet),
		"gets":                uint64(t.cmdGet),
		"hits":                uint64(t.getHits),
		"tx_attempts":         uint64(t.txAttempts),
		"tx_commits":          uint64(t.txCommits),
		"evictions":           s1.Evictions - s0.Evictions,
		"tx_serial_fallbacks": s1.TxSerialFallbacks - s0.TxSerialFallbacks,
		"stm_commits":         sh1.Commits - sh0.Commits,
		"stm_aborts":          sh1.Aborts - sh0.Aborts,
		"stm_serial_commits":  sh1.SerialCommits - sh0.SerialCommits,
		"stm_ro_fast_commits": sh1.ROFastCommits - sh0.ROFastCommits,
	}, nil
}

func sumSTM(ss []stm.Snapshot) stm.Snapshot {
	var out stm.Snapshot
	for _, s := range ss {
		out = out.Add(s)
	}
	return out
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(cfg runConfig, spans []span) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.wl.Name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
