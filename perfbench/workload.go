package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"strconv"
	"time"
)

// Kind is one request type the benchmark issues.
type Kind uint8

const (
	KGet Kind = iota
	KSet
	KMGet
	KIncr
	KTx
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "mget", "incr", "tx"}

func (k Kind) String() string { return kindNames[k] }

// Workload is one traffic mix. Everything the server sees is derived from
// these fields and the seed; nothing in the request stream names the
// workload. WORKLOADS.md records why each mix was chosen.
type Workload struct {
	Name string
	// Keys is the keyspace size; ValueSize the size of every data value.
	Keys      int
	ValueSize int
	// ZipfS > 1 draws keys from a Zipf distribution with this exponent;
	// 0 draws uniformly.
	ZipfS float64
	// Preload is how many keys set-up stores (ranks 0..Preload-1, coldest
	// first so the hottest are the most recently written).
	Preload int
	// WantEvictions makes set-up fail unless the preload already evicts,
	// i.e. the run starts with eviction in steady state.
	WantEvictions bool
	// Mix is the share of each Kind, in percent.
	Mix [numKinds]float64
	// MGetWidth is the number of keys in one multi-get.
	MGetWidth int
	// Counters are the incr targets; Accounts the transfer accounts.
	Counters, Accounts int
	// Rate is the open-loop offered rate in requests/s, frozen at about half
	// of the closed-loop rate measured when the benchmark was defined.
	Rate float64
	// LadderOps is the length of the op-stream prefix the traced run
	// replays through every rung.
	LadderOps int
}

const accountStart = 1_000_000

var workloads = []*Workload{
	{
		Name: "kv-small", Keys: 10_000, ValueSize: 64, Preload: 10_000,
		Mix:       [numKinds]float64{KGet: 78, KSet: 10, KMGet: 4, KIncr: 4, KTx: 4},
		MGetWidth: 16, Counters: 4, Accounts: 64,
		Rate: 5_000, LadderOps: 12_000,
	},
	{
		Name: "bulk-read", Keys: 8_192, ValueSize: 4096, Preload: 8_192,
		Mix:       [numKinds]float64{KGet: 12.5, KSet: 12.5, KMGet: 50, KIncr: 12.5, KTx: 12.5},
		MGetWidth: 16, Counters: 4, Accounts: 64,
		Rate: 650, LadderOps: 1_500,
	},
	{
		Name: "hot-write", Keys: 1_000_000, ValueSize: 1024, ZipfS: 1.01,
		Preload: 75_000, WantEvictions: true,
		Mix:       [numKinds]float64{KGet: 45, KSet: 40, KMGet: 5, KIncr: 5, KTx: 5},
		MGetWidth: 16, Counters: 4, Accounts: 8,
		Rate: 3_400, LadderOps: 12_000,
	},
}

func findWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func keyName(i int) string        { return "key:" + strconv.Itoa(i) }
func counterName(i int) string    { return "ctr:" + strconv.Itoa(i) }
func accountName(i int) string    { return "acct:" + strconv.Itoa(i) }
func accountValue(v int64) []byte { return strconv.AppendInt(nil, v, 10) }

// Op is one generated request. Key fields index the keyspace, the counters or
// the accounts depending on Kind.
type Op struct {
	Kind Kind
	Key  int
	// Keys are a multi-get's keys.
	Keys []int
	// Key2 is a transfer's second account.
	Key2 int
	// Seq is the per-(writer, key) version a set writes.
	Seq uint32
	// Delta is an incr amount or a transfer amount.
	Delta uint64
	// Writer is the index of the connection stream the op belongs to.
	Writer int
}

// Stream is one connection's op generator: a pure function of (workload,
// seed, writer). Writers never share state, so each stream is reproducible
// however the connections interleave at run time.
type Stream struct {
	wl     *Workload
	writer int
	rng    *rand.Rand
	zipf   *rand.Zipf
	cum    [numKinds]float64
	seqs   []uint32 // sets issued so far per key, by this writer
}

func newStream(wl *Workload, seed uint64, writer int) *Stream {
	s := &Stream{
		wl:     wl,
		writer: writer,
		rng:    rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(writer+1))),
		seqs:   make([]uint32, wl.Keys),
	}
	if wl.ZipfS > 1 {
		s.zipf = rand.NewZipf(s.rng, wl.ZipfS, 1, uint64(wl.Keys-1))
	}
	total := 0.0
	for k := Kind(0); k < numKinds; k++ {
		total += wl.Mix[k]
		s.cum[k] = total
	}
	for k := range s.cum {
		s.cum[k] /= total
	}
	return s
}

func (s *Stream) key() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.rng.IntN(s.wl.Keys)
}

// Next returns the stream's next op.
func (s *Stream) Next() Op {
	u := s.rng.Float64()
	k := KGet
	for k < numKinds-1 && u >= s.cum[k] {
		k++
	}
	op := Op{Kind: k, Writer: s.writer}
	switch k {
	case KGet:
		op.Key = s.key()
	case KSet:
		op.Key = s.key()
		s.seqs[op.Key]++
		op.Seq = s.seqs[op.Key]
	case KMGet:
		op.Keys = make([]int, s.wl.MGetWidth)
		for i := range op.Keys {
			op.Keys[i] = s.key()
		}
	case KIncr:
		op.Key = s.rng.IntN(s.wl.Counters)
		op.Delta = 1 + s.rng.Uint64N(9)
	case KTx:
		op.Key = s.rng.IntN(s.wl.Accounts)
		op.Key2 = (op.Key + 1 + s.rng.IntN(s.wl.Accounts-1)) % s.wl.Accounts
		op.Delta = 1 + s.rng.Uint64N(100)
	}
	return op
}

// Interleave returns the first n ops of the round-robin merge of writers
// streams: op i comes from writer i%writers. The open loop and the traced
// ladder both consume streams in this order.
func Interleave(wl *Workload, seed uint64, writers, n int) []Op {
	ss := make([]*Stream, writers)
	for i := range ss {
		ss[i] = newStream(wl, seed, i)
	}
	out := make([]Op, n)
	for i := range out {
		out[i] = ss[i%writers].Next()
	}
	return out
}

// Digest hashes an op sequence; the benchmark's test uses it to show the
// stream is a pure function of (workload, seed).
func Digest(ops []Op) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range ops {
		op := &ops[i]
		put(uint64(op.Kind))
		put(uint64(op.Key))
		put(uint64(op.Key2))
		put(uint64(op.Seq))
		put(op.Delta)
		put(uint64(op.Writer))
		put(uint64(len(op.Keys)))
		for _, k := range op.Keys {
			put(uint64(k))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// Arrivals returns one connection's open-loop due times, as offsets from the
// phase start: a Poisson process at rate per second, cut at d.
func Arrivals(seed uint64, conn int, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed^0x5851f42d4c957f2d, uint64(conn)+1))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// ---------------------------------------------------------------------------
// values

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// filler is the body pattern shared by every value; only the header (key,
// writer, version) and the trailing checksum differ between values.
var filler = func() []byte {
	rng := rand.New(rand.NewPCG(1, 2))
	b := make([]byte, 1<<16)
	for i := range b {
		b[i] = 'a' + byte(rng.IntN(26))
	}
	return b
}()

const sumLen = 8

// makeValue encodes "key|writer|seq|" + filler + an 8-hex-digit CRC-32C of
// everything before it, size bytes in all.
func makeValue(dst []byte, key string, writer int, seq uint32, size int) []byte {
	dst = dst[:0]
	dst = append(dst, key...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(writer), 10)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, uint64(seq), 10)
	dst = append(dst, '|')
	if len(dst)+sumLen > size {
		panic("value size too small for its header")
	}
	dst = append(dst, filler[:size-sumLen-len(dst)]...)
	sum := crc32.Checksum(dst, castagnoli)
	return fmt.Appendf(dst, "%08x", sum)
}

// parseValue checks a value's size, checksum and key, and returns the writer
// and version it encodes.
func parseValue(v []byte, key string, size int) (writer int, seq uint32, err error) {
	if len(v) != size {
		return 0, 0, fmt.Errorf("value for %s has %d bytes, want %d", key, len(v), size)
	}
	body := v[:size-sumLen]
	want, perr := strconv.ParseUint(string(v[size-sumLen:]), 16, 32)
	if perr != nil || uint32(want) != crc32.Checksum(body, castagnoli) {
		return 0, 0, fmt.Errorf("value for %s fails its checksum", key)
	}
	if len(body) <= len(key) || string(body[:len(key)]) != key || body[len(key)] != '|' {
		return 0, 0, fmt.Errorf("value for %s carries another key", key)
	}
	rest := body[len(key)+1:]
	var fields [2]uint64
	for i := range fields {
		j := 0
		for j < len(rest) && rest[j] != '|' {
			j++
		}
		n, perr := strconv.ParseUint(string(rest[:j]), 10, 32)
		if perr != nil || j == len(rest) {
			return 0, 0, fmt.Errorf("value for %s has a malformed header", key)
		}
		fields[i] = n
		rest = rest[j+1:]
	}
	return int(fields[0]), uint32(fields[1]), nil
}
