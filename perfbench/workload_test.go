package main

import (
	"bytes"
	"testing"
	"time"
)

func TestStreamIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, wl := range workloads {
		a := Digest(Interleave(wl, 7, 2, 5000))
		b := Digest(Interleave(wl, 7, 2, 5000))
		c := Digest(Interleave(wl, 8, 2, 5000))
		if a != b {
			t.Errorf("%s: same seed gave different stream digests", wl.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream digest", wl.Name)
		}
	}
}

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := Arrivals(3, 0, 1000, 10*time.Second)
	b := Arrivals(3, 0, 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("same seed gave different arrival schedules")
	}
	if n := len(a); n < 9000 || n > 11000 {
		t.Fatalf("rate 1000/s over 10s gave %d arrivals", n)
	}
	if c := Arrivals(4, 0, 1000, 10*time.Second); c[0] == a[0] {
		t.Fatal("different seeds gave the same first arrival")
	}
}

func TestMixMatchesWorkloadShares(t *testing.T) {
	for _, wl := range workloads {
		const n = 200_000
		var got [numKinds]int
		for _, op := range Interleave(wl, 1, 2, n) {
			got[op.Kind]++
		}
		total := 0.0
		for _, s := range wl.Mix {
			total += s
		}
		for k := Kind(0); k < numKinds; k++ {
			want := wl.Mix[k] / total
			if share := float64(got[k]) / n; share < want*0.9-0.001 || share > want*1.1+0.001 {
				t.Errorf("%s: %s share %.4f, want %.4f", wl.Name, k, share, want)
			}
		}
	}
}

func TestValueEncodesKeyVersionAndChecksum(t *testing.T) {
	for _, size := range []int{64, 1024, 4096} {
		v := makeValue(nil, "key:123", 2, 77, size)
		w, seq, err := parseValue(v, "key:123", size)
		if err != nil || w != 2 || seq != 77 {
			t.Fatalf("size %d: parse = %d %d %v", size, w, seq, err)
		}
		if _, _, err := parseValue(v, "key:124", size); err == nil {
			t.Errorf("size %d: value accepted for another key", size)
		}
		bad := bytes.Clone(v)
		bad[len(bad)/2] ^= 1
		if _, _, err := parseValue(bad, "key:123", size); err == nil {
			t.Errorf("size %d: corrupted value passed its checksum", size)
		}
	}
}

// The server must see only generated requests: no key, value or command
// may carry the workload's name.
func TestRequestsDoNotNameTheWorkload(t *testing.T) {
	for _, wl := range workloads {
		v := newVerifier(wl, 2, &badLog{})
		ck := newChecker(v)
		pt := &protoTarget{}
		var p prepared
		ops := Interleave(wl, 5, 2, 3000)
		for i := range ops {
			ck.prepare(&p, &ops[i])
			pt.encode(&p)
			for _, w := range workloads {
				if bytes.Contains(p.wire, []byte(w.Name)) || bytes.Contains(p.value, []byte(w.Name)) {
					t.Fatalf("%s: request %q names workload %s", wl.Name, p.wire, w.Name)
				}
			}
		}
	}
}

// Checking a hit must not allocate: the ladder's per-op allocation counts
// are meant to measure the layers, not the benchmark's own checks.
func TestVerificationDoesNotAllocate(t *testing.T) {
	wl := workloads[1]
	v := newVerifier(wl, 2, &badLog{})
	v.issue(2, 17, 1)
	ck := newChecker(v)
	val := makeValue(nil, keyName(17), 2, 1, wl.ValueSize)
	name := keyName(17)
	op := &Op{Kind: KMGet, Keys: []int{17}}
	if n := testing.AllocsPerRun(100, func() {
		ck.hit(17, name, val)
		ck.mgetResult(op, 1, func(int) (string, []byte, bool) { return name, val, true })
	}); n != 0 {
		t.Fatalf("checking a hit allocates %.1f times", n)
	}
	if v.bad.count() != 0 {
		t.Fatalf("valid value rejected: %v", v.bad.first)
	}
}
