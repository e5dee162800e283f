package armci

import (
	"bytes"
	"fmt"
	"sort"

	"armcivt/internal/digest"
	"armcivt/internal/sim"
)

// DigestEvery is the virtual-time interval between digest boundaries. At
// the paper's microsecond-scale operation latencies a 1 ms boundary lands
// every few tens of thousands of protocol events: frequent enough to narrow
// a divergence to a short window (the figure workloads span single-digit
// milliseconds of virtual time), rare enough that digesting the arenas
// stays cheap at the 16k-node scale point.
const DigestEvery = sim.Millisecond

// Layer names of the digest sections, in the order each Digest holds them.
var digestLayers = [...]string{"sim", "fabric", "faults", "armci"}

// Digest is every layer's state digest at one quiescent boundary.
type Digest struct {
	Index  int64    // boundary index: the digest describes virtual time Index*DigestEvery
	At     sim.Time // the boundary's virtual time
	Layers [len(digestLayers)][]byte
}

// RecordDigests makes the runtime digest every layer at each DigestEvery
// boundary the run passes (sim.Engine.ConfigureDigests). Recording is
// passive: a recording run is bit-identical to one that does not record, at
// any shard count, so the digests of two runs can be compared boundary by
// boundary with FirstDivergence. Must be called before Run.
func (rt *Runtime) RecordDigests() {
	rt.eng.ConfigureDigests(DigestEvery, func(at sim.Time, index int64) {
		rt.digests = append(rt.digests, Digest{Index: index, At: at, Layers: [...][]byte{
			rt.eng.DigestSection(),
			rt.net.DigestSection(),
			rt.faultInj.DigestSection(),
			rt.digestSection(),
		}})
	})
}

// Digests returns the digests recorded so far, in boundary order (nil
// unless RecordDigests was called).
func (rt *Runtime) Digests() []Digest { return rt.digests }

// DivergenceError locates the first point where two digest sequences split:
// the boundary (index and virtual time) and the first layer, in sim, fabric,
// faults, armci order, whose digest differs there. Layer is "boundary" when
// the runs did not pass the same boundary at all: their boundary indices
// differ, or one run ended before reaching it.
type DivergenceError struct {
	Index int64
	At    sim.Time
	Layer string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("armci: runs diverge at boundary %d (t=%v) in layer %s", e.Index, e.At, e.Layer)
}

// FirstDivergence compares two runs' digests boundary by boundary and
// returns nil when they agree everywhere, or a *DivergenceError naming the
// first boundary and layer where they split.
func FirstDivergence(a, b []Digest) error {
	for i := range max(len(a), len(b)) {
		if i >= len(a) {
			return &DivergenceError{Index: b[i].Index, At: b[i].At, Layer: "boundary"}
		}
		if i >= len(b) {
			return &DivergenceError{Index: a[i].Index, At: a[i].At, Layer: "boundary"}
		}
		da, db := &a[i], &b[i]
		if da.Index != db.Index {
			first := min(da.Index, db.Index)
			return &DivergenceError{Index: first, At: sim.Time(first) * DigestEvery, Layer: "boundary"}
		}
		for l, name := range digestLayers {
			if !bytes.Equal(da.Layers[l], db.Layers[l]) {
				return &DivergenceError{Index: da.Index, At: da.At, Layer: name}
			}
		}
	}
	return nil
}

// digestSection digests the ARMCI layer's state at a quiescent boundary:
// per-node protocol counters, the egress arena (credits, parked sends,
// debts), CHT pending counts and inbox depths, dedup tables, adaptive
// capacities, pacer state, membership views, allocation slabs, and free-list
// depths. Everything here is owner-context state, deterministic at
// quiescence under the bit-identity contract.
func (rt *Runtime) digestSection() []byte {
	var enc digest.Enc

	// The three O(nodes)/O(edges) arena loops dominate digest cost at 16k+
	// nodes, so they are digested sparsely — entries still in their initial
	// state contribute nothing, and a touched entry is folded with its index
	// so position stays part of the digest — and in parallel via ParallelMix
	// (chunked, deterministic, safe at a quiescent boundary where every
	// shard is parked). In the paper's incast workloads only the active set
	// and the hot paths toward rank 0 ever leave the virgin state, so the
	// per-boundary work tracks the touched footprint, not the node count.
	enc.Str("nstats")
	enc.U64(digest.ParallelMix(len(rt.nstats), func(lo, hi int) uint64 {
		h := digest.MixInit
		for n := lo; n < hi; n++ {
			s := &rt.nstats[n]
			fields := []uint64{
				s.Ops, s.Requests, s.Forwards, s.LocalOps, s.CreditWaits,
				uint64(s.CreditWaited), uint64(s.MaxCHTBacklog),
				s.Timeouts, s.Retries, s.Failures, s.CreditRegens, s.Reroutes,
				s.DupDrops, s.NoRoutes, s.AggBatches, s.AggBatchedOps,
				s.CreditShifts, s.Suspicions, s.Confirms, s.Rejoins,
				s.HealReplays, s.HealFails, s.CreditWriteOffs, s.StaleAcks,
				s.NodeAborts, uint64(s.MaxDetectLatency), s.Completions,
				s.Admitted, s.ShedOps, s.ShedBudget, s.ShedDeadline, s.ShedClass,
				s.PaceWaits, uint64(s.PaceWaited), s.PaceBackoffs, s.PaceSlams,
				s.CEAcks,
			}
			var any uint64
			for _, v := range fields {
				any |= v
			}
			if any == 0 {
				continue
			}
			h = digest.Mix(h, uint64(n))
			for _, v := range fields {
				h = digest.Mix(h, v)
			}
		}
		return h
	}))

	enc.Str("egress")
	enc.U64(digest.ParallelMix(len(rt.egArena), func(lo, hi int) uint64 {
		h := digest.MixInit
		for i := lo; i < hi; i++ {
			eg := &rt.egArena[i]
			if eg.credits == eg.capacity && len(eg.pending) == 0 &&
				eg.revokeDebt == 0 && eg.regenDebt == 0 && eg.transmits == 0 {
				continue // untouched edge: full credits, no history
			}
			h = digest.Mix(h, uint64(i))
			h = digest.Mix(h, uint64(eg.credits))
			h = digest.Mix(h, uint64(eg.capacity))
			h = digest.Mix(h, uint64(len(eg.pending)))
			h = digest.Mix(h, uint64(eg.revokeDebt))
			h = digest.Mix(h, uint64(eg.regenDebt))
			h = digest.Mix(h, eg.transmits)
		}
		return h
	}))

	enc.Str("nodes")
	enc.U64(digest.ParallelMix(len(rt.nodes), func(lo, hi int) uint64 {
		h := digest.MixInit
		for n := lo; n < hi; n++ {
			ns := &rt.nodes[n]
			if nodeStateVirgin(ns) {
				continue
			}
			h = digest.Mix(h, uint64(n))
			h = rt.mixNodeState(h, ns)
		}
		return h
	}))

	enc.Str("misc")
	h := digest.MixInit
	h = digest.Mix(h, uint64(rt.liveRanks))
	h = digest.Mix(h, uint64(rt.barrier.arrived))
	for m := range rt.mutexes {
		mu := &rt.mutexes[m]
		if mu.held {
			h = digest.Mix(h, 1)
		} else {
			h = digest.Mix(h, 0)
		}
		h = digest.Mix(h, uint64(uint32(int32(mu.owner))))
		h = digest.Mix(h, uint64(len(mu.waiters)))
	}
	enc.U64(h)

	enc.Str("allocs")
	rt.allocsMu.RLock()
	names := make([]string, 0, len(rt.allocs))
	for name := range rt.allocs {
		names = append(names, name)
	}
	sort.Strings(names)
	h = digest.MixInit
	for _, name := range names {
		a := rt.allocs[name]
		h = digest.MixStr(h, name)
		h = digest.Mix(h, uint64(a.bytes))
		for r, slab := range a.mem {
			if slab == nil {
				continue // lazily materialized; untouched slabs are all-zero
			}
			h = digest.Mix(h, uint64(r))
			h = digest.MixBytes(h, slab)
		}
	}
	rt.allocsMu.RUnlock()
	enc.U64(h)

	return enc.Bytes()
}

// nodeStateVirgin reports whether a node's digestable state is still
// exactly as constructed, so the sparse nodes digest may skip it: no CHT
// pendings or inbox entries, no dedup history, no credit shifts (inCap is
// then still the config-derived initial on every in-edge — shifts stamp
// lastShift past the neverShifted sentinel on both edges involved), no
// pacers, no membership view, and empty free lists.
func nodeStateVirgin(ns *nodeState) bool {
	if ns.pendingSrcs != 0 || ns.inbox.Len() != 0 || ns.ridSeq != 0 ||
		len(ns.rids) != 0 || len(ns.pacers) != 0 || ns.mv != nil ||
		len(ns.psFree) != 0 || len(ns.reqFree) != 0 {
		return false
	}
	for _, p := range ns.pendingBySrc {
		if p != 0 {
			return false
		}
	}
	for _, t := range ns.lastShift {
		if t != neverShifted {
			return false
		}
	}
	return true
}

// mixNodeState folds one node's owner-context protocol state into the
// running digest: CHT pending counts and inbox depth, the dedup table,
// adaptive capacities, pacer state, membership view, and free-list depths.
func (rt *Runtime) mixNodeState(h uint64, ns *nodeState) uint64 {
	for _, p := range ns.pendingBySrc {
		h = digest.Mix(h, uint64(uint32(p)))
	}
	h = digest.Mix(h, uint64(ns.pendingSrcs))
	h = digest.Mix(h, uint64(ns.inbox.Len()))
	h = digest.Mix(h, ns.ridSeq)
	if len(ns.rids) > 0 {
		keys := make([]uint64, 0, len(ns.rids))
		for rid := range ns.rids {
			keys = append(keys, rid)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		h = digest.Mix(h, uint64(len(keys)))
		for _, rid := range keys {
			d := ns.rids[rid]
			h = digest.Mix(h, rid)
			if d.responded {
				h = digest.Mix(h, 1)
			} else {
				h = digest.Mix(h, 0)
			}
			h = digest.Mix(h, uint64(d.old))
		}
	}
	for i := range ns.inCap {
		h = digest.Mix(h, uint64(ns.inCap[i]))
		h = digest.Mix(h, uint64(ns.lastShift[i]))
	}
	if len(ns.pacers) > 0 {
		dsts := make([]int, 0, len(ns.pacers))
		for d := range ns.pacers {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		h = digest.Mix(h, uint64(len(dsts)))
		for _, d := range dsts {
			p := ns.pacers[d]
			h = digest.Mix(h, uint64(d))
			h = digest.Mix(h, uint64(p.gap))
			h = digest.Mix(h, uint64(p.nextFree))
			h = digest.Mix(h, uint64(p.lastCut))
			h = digest.Mix(h, uint64(p.lastDecay))
		}
	}
	if ns.mv != nil {
		h = digest.Mix(h, uint64(ns.mv.resetAt))
		for _, nbr := range ns.mv.nbrs {
			h = digest.Mix(h, uint64(nbr))
			h = digest.Mix(h, uint64(ns.mv.lastHeard[nbr]))
			h = digest.Mix(h, uint64(ns.mv.state[nbr]))
		}
	}
	h = digest.Mix(h, uint64(len(ns.psFree)))
	h = digest.Mix(h, uint64(len(ns.reqFree)))
	return h
}
