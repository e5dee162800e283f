package digest

import "testing"

func TestEnc(t *testing.T) {
	var e Enc
	e.U8(1)
	e.U32(2)
	e.U64(3)
	e.I64(-4)
	e.F64(1.5)
	e.Str("hi")
	b := e.Bytes()
	want := 1 + 4 + 8 + 8 + 8 + 4 + 2
	if len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
}

// The mixer is also the chaos ledger fingerprint, so its output is pinned:
// any change to Mix, MixStr, MixF64, MixBytes or ParallelMix's chunking
// breaks every recorded fingerprint.
func TestMixKnownAnswers(t *testing.T) {
	h := Mix(MixInit, 42)
	h = MixStr(h, "fabric-digest")
	h = MixF64(h, 1.5)
	h = MixBytes(h, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if h != 0x805aa93655d89476 {
		t.Errorf("mix chain = %#x, want 0x805aa93655d89476", h)
	}
	p := ParallelMix(10000, func(lo, hi int) uint64 {
		h := MixInit
		for i := lo; i < hi; i++ {
			h = Mix(h, uint64(i*i))
		}
		return h
	})
	if p != 0x26a91f012c0b828f {
		t.Errorf("ParallelMix = %#x, want 0x26a91f012c0b828f", p)
	}
}
