package faults

import (
	"cmp"
	"math"
	"slices"

	"armcivt/internal/digest"
	"armcivt/internal/sim"
)

// DigestSection digests the injector's fault-schedule position at a
// quiescent boundary: which failures are currently active (and at what
// depth), the bandwidth multipliers in force, crash instants, and the
// activation/repair counters. Map entries are hashed in sorted-key order so
// the digest is independent of Go's map iteration. A nil injector digests to
// a fixed "healthy" section, matching its nil-query semantics.
func (in *Injector) DigestSection() []byte {
	var enc digest.Enc
	if in == nil {
		enc.Str("nil")
		return enc.Bytes()
	}
	pairs := func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
	pairKey := func(h uint64, k [2]int) uint64 { return digest.Mix(digest.Mix(h, uint64(k[0])), uint64(k[1])) }
	intKey := func(h uint64, k int) uint64 { return digest.Mix(h, uint64(k)) }
	word := func(v int) uint64 { return uint64(v) }

	mixSorted(&enc, "linkDown", in.linkDown, pairs, pairKey, word)
	mixSorted(&enc, "linkFactor", in.linkFactor, pairs, pairKey, digestF64)
	mixSorted(&enc, "chtDown", in.chtDown, cmp.Compare[int], intKey, word)
	mixSorted(&enc, "nodeDown", in.nodeDown, cmp.Compare[int], intKey, word)
	mixSorted(&enc, "stormDown", in.stormDown, cmp.Compare[int], intKey, word)
	mixSorted(&enc, "crashedAt", in.crashedAt, cmp.Compare[int], intKey, func(t sim.Time) uint64 { return uint64(t) })
	mixSorted(&enc, "stormFactor", in.stormFactor, cmp.Compare[int], intKey, digestF64)
	mixSorted(&enc, "injected", in.injected, cmp.Compare[Kind],
		func(h uint64, k Kind) uint64 { return digest.Mix(h, uint64(k)) }, word)

	enc.Str("counters")
	enc.U64(in.activations)
	enc.U64(in.repairs)
	enc.U32(uint32(in.active))
	enc.U32(uint32(in.peakActive))
	return enc.Bytes()
}

// digestF64 is a float's digest word: its IEEE-754 bits.
func digestF64(v float64) uint64 { return math.Float64bits(v) }

// mixSorted appends label, the entry count and one running digest of m's
// entries folded in ascending key order (compare orders the keys; mixKey
// folds a key, value maps a value to its word).
func mixSorted[K comparable, V any](enc *digest.Enc, label string, m map[K]V,
	compare func(a, b K) int, mixKey func(h uint64, k K) uint64, value func(V) uint64) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	h := digest.MixInit
	for _, k := range keys {
		h = digest.Mix(mixKey(h, k), value(m[k]))
	}
	enc.Str(label)
	enc.U32(uint32(len(keys)))
	enc.U64(h)
}
