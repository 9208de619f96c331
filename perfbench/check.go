package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/engine"
)

// verifier knows, for every (writer, key), the highest version the generator
// has handed to a connection. A value read back is genuine only if it names
// its own key, passes its checksum and carries a version its writer issued.
type verifier struct {
	wl      *Workload
	writers int // connection streams; index writers is the preload
	issued  [][]atomic.Uint32
	bad     *badLog
}

func newVerifier(wl *Workload, writers int, bad *badLog) *verifier {
	v := &verifier{wl: wl, writers: writers, bad: bad, issued: make([][]atomic.Uint32, writers+1)}
	for i := range v.issued {
		v.issued[i] = make([]atomic.Uint32, wl.Keys)
	}
	return v
}

func (v *verifier) issue(writer, key int, seq uint32) {
	a := &v.issued[writer][key]
	for {
		cur := a.Load()
		if cur >= seq || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// badLog collects correctness violations; any entry fails the run.
type badLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (b *badLog) add(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	if len(b.first) < 10 {
		b.first = append(b.first, fmt.Sprintf(format, args...))
	}
}

func (b *badLog) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// tally is one connection's client-side count of what it asked the server
// to do, in the units of the server's own stats counters.
type tally struct {
	ops                                [numKinds]int64
	cmdGet, getHits, getMisses, cmdSet int64
	cmds                               int64 // protocol commands sent
	txAttempts, txCommits              int64
	failed                             int64
}

func (t *tally) add(o *tally) {
	for k := range t.ops {
		t.ops[k] += o.ops[k]
	}
	t.cmdGet += o.cmdGet
	t.getHits += o.getHits
	t.getMisses += o.getMisses
	t.cmdSet += o.cmdSet
	t.cmds += o.cmds
	t.txAttempts += o.txAttempts
	t.txCommits += o.txCommits
	t.failed += o.failed
}

func (t *tally) requests() int64 {
	var n int64
	for _, c := range t.ops {
		n += c
	}
	return n
}

// checker is one connection's correctness state and tally.
type checker struct {
	v        *verifier
	lastIncr []uint64
	t        tally
	// t0 and t1 bracket the target's own work in the last do call; the
	// verification that follows it is not timed.
	t0, t1 time.Time
}

func (c *checker) begin() { c.t0 = time.Now() }
func (c *checker) end()   { c.t1 = time.Now() }

func newChecker(v *verifier) *checker {
	return &checker{v: v, lastIncr: make([]uint64, v.wl.Counters)}
}

// hit verifies a value read for keyspace index key, whose name is name.
func (c *checker) hit(key int, name string, val []byte) {
	c.t.getHits++
	writer, seq, err := parseValue(val, name, c.v.wl.ValueSize)
	switch {
	case err != nil:
		c.v.bad.add("%v", err)
	case writer > c.v.writers || seq == 0 || seq > c.v.issued[writer][key].Load():
		c.v.bad.add("value for %s claims writer %d version %d, which was never written", name, writer, seq)
	}
}

func (c *checker) miss(key int) {
	c.t.getMisses++
	if c.v.wl.Preload >= c.v.wl.Keys && !c.v.wl.WantEvictions {
		c.v.bad.add("miss on preloaded key %s", keyName(key))
	}
}

func (c *checker) incr(ctr int, v uint64) {
	if v <= c.lastIncr[ctr] {
		c.v.bad.add("incr %s replied %d after %d on the same connection", counterName(ctr), v, c.lastIncr[ctr])
	}
	c.lastIncr[ctr] = v
}

// prepared is an op with every byte it sends already built, so a target's
// timed call does only the target's own work.
type prepared struct {
	op        *Op
	key, key2 string
	keys      []string
	keyBytes  [][]byte
	value     []byte // a set's value (stale for other kinds)
	wire      []byte // text-protocol request, for the protocol rung
}

func (c *checker) prepare(p *prepared, op *Op) {
	p.op = op
	p.keys = p.keys[:0]
	p.keyBytes = p.keyBytes[:0]
	p.wire = p.wire[:0]
	switch op.Kind {
	case KGet, KSet:
		p.key = keyName(op.Key)
		p.keyBytes = append(p.keyBytes, []byte(p.key))
	case KMGet:
		for _, k := range op.Keys {
			s := keyName(k)
			p.keys = append(p.keys, s)
			p.keyBytes = append(p.keyBytes, []byte(s))
		}
	case KIncr:
		p.key = counterName(op.Key)
		p.keyBytes = append(p.keyBytes, []byte(p.key))
	case KTx:
		p.key, p.key2 = accountName(op.Key), accountName(op.Key2)
		p.keyBytes = append(p.keyBytes, []byte(p.key), []byte(p.key2))
	}
	if op.Kind == KSet {
		p.value = makeValue(p.value, p.key, op.Writer, op.Seq, c.v.wl.ValueSize)
		c.v.issue(op.Writer, op.Key, op.Seq)
	}
}

// target is one entry point the benchmark can drive: the engine, the
// protocol over a pipe, or the public client over a pipe or TCP.
type target interface {
	// do runs one prepared op. It returns errSkip when the target cannot
	// serve the op kind, and any other error when the request failed.
	do(p *prepared, c *checker) error
}

var errSkip = errors.New("op kind not served by this target")

// transfer moves amount from a to b given their current balances.
func transfer(a, b []byte, amount uint64) (na, nb []byte, err error) {
	va, err1 := strconv.ParseInt(string(a), 10, 64)
	vb, err2 := strconv.ParseInt(string(b), 10, 64)
	if err1 != nil || err2 != nil {
		return nil, nil, fmt.Errorf("account balance is not a number: %q %q", a, b)
	}
	return accountValue(va - int64(amount)), accountValue(vb + int64(amount)), nil
}

// ---------------------------------------------------------------------------
// client target

type clientTarget struct{ c *client.Client }

func (t clientTarget) do(p *prepared, c *checker) error {
	op := p.op
	switch op.Kind {
	case KGet:
		c.t.cmds++
		c.begin()
		v, ok, err := t.c.Get(p.key)
		c.end()
		if err != nil {
			return err
		}
		c.t.cmdGet++
		if ok {
			c.hit(op.Key, p.key, v)
		} else {
			c.miss(op.Key)
		}
	case KSet:
		c.t.cmds++
		c.t.cmdSet++
		c.begin()
		err := t.c.Set(p.key, p.value)
		c.end()
		return err
	case KMGet:
		c.t.cmds++
		c.begin()
		items, err := t.c.Gets(p.keys...)
		c.end()
		if err != nil {
			return err
		}
		c.t.cmdGet += int64(len(p.keys))
		c.mgetResult(op, len(items), func(i int) (string, []byte, bool) {
			return items[i].Key, items[i].Value, true
		})
	case KIncr:
		c.t.cmds++
		c.begin()
		v, err := t.c.Incr(p.key, op.Delta)
		c.end()
		if err != nil {
			return err
		}
		c.incr(op.Key, v)
	case KTx:
		c.begin()
		err := t.c.Tx(func(tx *client.Tx) error {
			c.t.txAttempts++
			c.t.cmds += 6 // txbegin, 2 gets, 2 sets, txcommit
			a, okA, err := tx.Get(p.key)
			if err != nil {
				return err
			}
			b, okB, err := tx.Get(p.key2)
			if err != nil {
				return err
			}
			if err := c.accounts(okA, okB, p); err != nil {
				return err
			}
			na, nb, err := transfer(a, b, op.Delta)
			if err != nil {
				return err
			}
			tx.Set(p.key, na)
			tx.Set(p.key2, nb)
			return tx.Err()
		})
		c.end()
		if err != nil {
			return err
		}
		c.t.txCommits++
		c.t.cmdSet += 2
	}
	return nil
}

// accounts counts a transfer's two reads; both accounts always exist.
func (c *checker) accounts(okA, okB bool, p *prepared) error {
	c.t.cmdGet += 2
	for _, ok := range [2]bool{okA, okB} {
		if ok {
			c.t.getHits++
		} else {
			c.t.getMisses++
		}
	}
	if !okA || !okB {
		c.v.bad.add("transfer account %s or %s missing", p.key, p.key2)
		return fmt.Errorf("transfer account %s or %s missing", p.key, p.key2)
	}
	return nil
}

// mgetResult checks a multi-get reply of n hits, the i-th given by at (ok
// false when the hit is already reported as bad): every hit is verified, and
// the keys requested but absent count as misses.
func (c *checker) mgetResult(op *Op, n int, at func(i int) (name string, val []byte, ok bool)) {
	for i := 0; i < n; i++ {
		name, v, ok := at(i)
		if !ok {
			continue
		}
		num, ok := strings.CutPrefix(name, "key:")
		k, err := strconv.Atoi(num)
		var digits [20]byte
		if !ok || err != nil || k < 0 || k >= c.v.wl.Keys || string(strconv.AppendInt(digits[:0], int64(k), 10)) != num {
			c.v.bad.add("multi-get returned unrequested key %q", name)
			continue
		}
		c.hit(k, name, v)
	}
	for i := n; i < len(op.Keys); i++ {
		c.miss(op.Keys[i])
	}
}

// ---------------------------------------------------------------------------
// engine target

type engineTarget struct{ w *engine.Worker }

func (t engineTarget) do(p *prepared, c *checker) error {
	op := p.op
	w := t.w
	switch op.Kind {
	case KGet:
		c.begin()
		v, _, _, found := w.Get(p.keyBytes[0])
		c.end()
		c.t.cmdGet++
		if found {
			c.hit(op.Key, p.key, v)
		} else {
			c.miss(op.Key)
		}
	case KSet:
		c.t.cmdSet++
		c.begin()
		r := w.Set(p.keyBytes[0], 0, 0, p.value)
		c.end()
		if r != engine.Stored {
			return fmt.Errorf("engine set %s: %v", p.key, r)
		}
	case KMGet:
		c.begin()
		res := w.GetMulti(p.keyBytes)
		c.end()
		c.t.cmdGet += int64(len(res))
		for i := range res {
			if res[i].Found {
				c.hit(op.Keys[i], p.keys[i], res[i].Value)
			} else {
				c.miss(op.Keys[i])
			}
		}
	case KIncr:
		c.begin()
		v, r := w.Incr(p.keyBytes[0], op.Delta)
		c.end()
		if r != engine.DeltaOK {
			return fmt.Errorf("engine incr %s: result %d", p.key, r)
		}
		c.incr(op.Key, v)
	case KTx:
		if !w.TxSupported() {
			return errSkip
		}
		ka, kb := p.keyBytes[0], p.keyBytes[1]
		c.begin()
		defer c.end()
		for attempt := 0; attempt < maxTxAttempts; attempt++ {
			c.t.txAttempts++
			a, _, casA, okA := w.Get(ka)
			b, _, casB, okB := w.Get(kb)
			if err := c.accounts(okA, okB, p); err != nil {
				return err
			}
			na, nb, err := transfer(a, b, op.Delta)
			if err != nil {
				return err
			}
			out := w.CommitTx(
				[]engine.TxRead{{Key: ka, CAS: casA}, {Key: kb, CAS: casB}},
				[]engine.TxOp{{Kind: engine.TxSet, Key: ka, Value: na}, {Kind: engine.TxSet, Key: kb, Value: nb}})
			if out.Committed {
				c.t.txCommits++
				c.t.cmdSet += 2
				return nil
			}
		}
		return fmt.Errorf("transfer %s→%s lost %d conflicts in a row", p.key, p.key2, maxTxAttempts)
	}
	return nil
}

// maxTxAttempts bounds a transfer's conflict retries at every target.
const maxTxAttempts = 1000

// ---------------------------------------------------------------------------
// protocol target: pre-encoded text requests over a pipe, replies parsed
// with a minimal reader that keeps value bytes in a reused arena.

type protoTarget struct {
	r     *bufio.Reader
	w     *bufio.Writer
	arena []byte
	hits  []protoHit
}

type protoHit struct{ key, val [2]int }

// encode builds the op's request bytes (a transfer's are built per attempt,
// since they depend on the balances it reads).
func (t *protoTarget) encode(p *prepared) {
	b := p.wire[:0]
	switch p.op.Kind {
	case KGet:
		b = append(append(append(b, "get "...), p.key...), "\r\n"...)
	case KSet:
		b = fmt.Appendf(b, "set %s 0 0 %d\r\n", p.key, len(p.value))
		b = append(append(b, p.value...), "\r\n"...)
	case KMGet:
		b = append(b, "gets"...)
		for _, k := range p.keys {
			b = append(append(b, ' '), k...)
		}
		b = append(b, "\r\n"...)
	case KIncr:
		b = fmt.Appendf(b, "incr %s %d\r\n", p.key, p.op.Delta)
	}
	p.wire = b
}

func (t *protoTarget) send(b []byte) error {
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	return t.w.Flush()
}

func (t *protoTarget) line() ([]byte, error) {
	l, err := t.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// values reads a VALUE…END reply into the arena.
func (t *protoTarget) values() error {
	t.arena, t.hits = t.arena[:0], t.hits[:0]
	for {
		l, err := t.line()
		if err != nil {
			return err
		}
		if string(l) == "END" {
			return nil
		}
		f := bytes.Fields(l)
		if len(f) < 4 || string(f[0]) != "VALUE" {
			return fmt.Errorf("protocol: unexpected reply %q", l)
		}
		n, err := strconv.Atoi(string(f[3]))
		if err != nil {
			return fmt.Errorf("protocol: bad length in %q", l)
		}
		var h protoHit
		h.key[0] = len(t.arena)
		t.arena = append(t.arena, f[1]...)
		h.key[1] = len(t.arena)
		h.val[0] = len(t.arena)
		t.arena = append(t.arena, make([]byte, n+2)...)
		if _, err := readFullBuf(t.r, t.arena[h.val[0]:]); err != nil {
			return err
		}
		t.arena = t.arena[:len(t.arena)-2]
		h.val[1] = len(t.arena)
		t.hits = append(t.hits, h)
	}
}

func readFullBuf(r *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (t *protoTarget) expect(want string) error {
	l, err := t.line()
	if err != nil {
		return err
	}
	if string(l) != want {
		return fmt.Errorf("protocol: got %q, want %q", l, want)
	}
	return nil
}

func (t *protoTarget) do(p *prepared, c *checker) error {
	op := p.op
	c.begin()
	if op.Kind != KTx {
		c.t.cmds++
		if err := t.send(p.wire); err != nil {
			c.end()
			return err
		}
	}
	switch op.Kind {
	case KGet, KMGet:
		err := t.values()
		c.end()
		if err != nil {
			return err
		}
		c.t.cmdGet += int64(len(p.keyBytes))
		if op.Kind == KGet {
			if len(t.hits) == 0 {
				c.miss(op.Key)
			} else {
				h := t.hits[0]
				c.hit(op.Key, p.key, t.arena[h.val[0]:h.val[1]])
			}
			return nil
		}
		c.mgetResult(op, len(t.hits), func(i int) (string, []byte, bool) {
			// Name the hit by the requested key it matches, so checking
			// allocates nothing the protocol rung would be charged for.
			h := t.hits[i]
			name := t.arena[h.key[0]:h.key[1]]
			for j, kb := range p.keyBytes {
				if bytes.Equal(kb, name) {
					return p.keys[j], t.arena[h.val[0]:h.val[1]], true
				}
			}
			c.v.bad.add("multi-get returned unrequested key %q", name)
			return "", nil, false
		})
	case KSet:
		c.t.cmdSet++
		err := t.expect("STORED")
		c.end()
		return err
	case KIncr:
		l, err := t.line()
		c.end()
		if err != nil {
			return err
		}
		v, err := strconv.ParseUint(string(l), 10, 64)
		if err != nil {
			return fmt.Errorf("protocol: incr replied %q", l)
		}
		c.incr(op.Key, v)
	case KTx:
		err := t.transfer(p, c)
		c.end()
		return err
	}
	return nil
}

func (t *protoTarget) readOne(key string) ([]byte, error) {
	if err := t.send([]byte("gets " + key + "\r\n")); err != nil {
		return nil, err
	}
	if err := t.values(); err != nil {
		return nil, err
	}
	if len(t.hits) != 1 {
		return nil, fmt.Errorf("transfer account %s missing", key)
	}
	h := t.hits[0]
	return append([]byte(nil), t.arena[h.val[0]:h.val[1]]...), nil
}

func (t *protoTarget) transfer(p *prepared, c *checker) error {
	for attempt := 0; attempt < maxTxAttempts; attempt++ {
		c.t.txAttempts++
		c.t.cmds += 6
		if err := t.send([]byte("txbegin\r\n")); err != nil {
			return err
		}
		if err := t.expect("STARTED"); err != nil {
			return err
		}
		a, err := t.readOne(p.key)
		if err != nil {
			return err
		}
		b, err := t.readOne(p.key2)
		if err != nil {
			return err
		}
		c.t.cmdGet += 2
		c.t.getHits += 2
		na, nb, err := transfer(a, b, p.op.Delta)
		if err != nil {
			return err
		}
		for _, kv := range [2]struct {
			k string
			v []byte
		}{{p.key, na}, {p.key2, nb}} {
			req := fmt.Appendf(nil, "set %s 0 0 %d\r\n%s\r\n", kv.k, len(kv.v), kv.v)
			if err := t.send(req); err != nil {
				return err
			}
			if err := t.expect("QUEUED"); err != nil {
				return err
			}
		}
		if err := t.send([]byte("txcommit\r\n")); err != nil {
			return err
		}
		l, err := t.line()
		if err != nil {
			return err
		}
		if bytes.HasPrefix(l, []byte("TX_CONFLICT ")) {
			continue
		}
		n, err := strconv.Atoi(string(bytes.TrimPrefix(l, []byte("TXRESULT "))))
		if err != nil {
			return fmt.Errorf("protocol: txcommit replied %q", l)
		}
		for i := 0; i <= n; i++ {
			if _, err := t.line(); err != nil {
				return err
			}
		}
		c.t.txCommits++
		c.t.cmdSet += 2
		return nil
	}
	return fmt.Errorf("transfer %s→%s lost %d conflicts in a row", p.key, p.key2, maxTxAttempts)
}
