package fabric

import (
	"sort"

	"armcivt/internal/digest"
)

// DigestSection digests the fabric's state at a quiescent boundary:
// link/injection/ejection port reservations, per-source ejection queue
// occupancy, per-position counters, and message free-list depths. Every
// field digested here is deterministic under the bit-identity contract, so
// two runs of the same workload paused at the same boundary produce equal
// sections regardless of shard count (docs/PARALLELISM.md).
func (nw *Network) DigestSection() []byte {
	var enc digest.Enc

	// The port arrays and per-position counters are O(links)/O(nodes) and
	// dominate fabric digest cost at large scale, so they are digested
	// sparsely — a port no message ever crossed contributes nothing, and a
	// used port folds with its index so position stays part of the digest —
	// and in parallel via ParallelMix (chunked, deterministic, safe at a
	// quiescent boundary).
	ports := func(label string, ls []link) {
		enc.Str(label)
		enc.U32(uint32(len(ls)))
		enc.U64(digest.ParallelMix(len(ls), func(lo, hi int) uint64 {
			h := digest.MixInit
			for i := lo; i < hi; i++ {
				if ls[i].nextFree == 0 && ls[i].busy == 0 && ls[i].msgs == 0 {
					continue
				}
				h = digest.Mix(h, uint64(i))
				h = digest.Mix(h, uint64(ls[i].nextFree))
				h = digest.Mix(h, uint64(ls[i].busy))
				h = digest.Mix(h, ls[i].msgs)
			}
			return h
		}))
	}
	ports("links", nw.links)
	ports("inj", nw.inj)
	ports("ej", nw.ej)

	enc.Str("ejSources")
	h := digest.MixInit
	for node, srcs := range nw.ejSources {
		if len(srcs) == 0 {
			continue
		}
		keys := make([]int, 0, len(srcs))
		for src := range srcs {
			keys = append(keys, src)
		}
		sort.Ints(keys)
		h = digest.Mix(h, uint64(node))
		h = digest.Mix(h, uint64(len(keys)))
		for _, src := range keys {
			h = digest.Mix(h, uint64(src))
			h = digest.Mix(h, uint64(srcs[src]))
		}
	}
	enc.U64(h)

	enc.Str("stats")
	enc.U64(digest.ParallelMix(len(nw.stats), func(lo, hi int) uint64 {
		h := digest.MixInit
		for i := lo; i < hi; i++ {
			s := &nw.stats[i]
			if s.Messages|s.Bytes|uint64(s.MaxQueueWait)|uint64(s.MaxStreams)|
				s.LinkStalls|s.Reroutes|s.Dropped|s.NodeDrops|s.CEMarks == 0 {
				continue
			}
			h = digest.Mix(h, uint64(i))
			h = digest.Mix(h, s.Messages)
			h = digest.Mix(h, s.Bytes)
			h = digest.Mix(h, uint64(s.MaxQueueWait))
			h = digest.Mix(h, uint64(s.MaxStreams))
			h = digest.Mix(h, s.LinkStalls)
			h = digest.Mix(h, s.Reroutes)
			h = digest.Mix(h, s.Dropped)
			h = digest.Mix(h, s.NodeDrops)
			h = digest.Mix(h, s.CEMarks)
		}
		return h
	}))

	enc.Str("msgFree")
	h = digest.MixInit
	for pos := range nw.msgFree {
		if n := len(nw.msgFree[pos]); n != 0 {
			h = digest.Mix(h, uint64(pos))
			h = digest.Mix(h, uint64(n))
		}
	}
	enc.U64(h)

	return enc.Bytes()
}
