package main

import (
	"bytes"
	"fmt"
	"hash"
	"math/bits"
	"math/rand"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// kind selects a workload's rank body and correctness check.
type kind int

const (
	hotspotPutV kind = iota // Fig 6: vectored puts into rank 0
	hotspotFAdd             // Fig 7: fetch-&-add on one counter at rank 0
	chaosHeal               // crash-stop faults with healing on
	scaleIncast             // large-N windowed incast
)

// Workload is one named benchmark input family: a topology, a job size and
// a closed-loop rank body. Every simulated rank issues its next operation
// only after the previous one (or its window) completed.
type Workload struct {
	Name string
	Why  string
	Kind kind
	// Topo is a core.ParseSpec topology spec.
	Topo       string
	Nodes, PPN int
	// Iters is the op count of each measured, surviving or active rank.
	Iters int
	// ContenderEvery makes every k-th rank a contender that hammers rank 0
	// for the whole run; SampleEvery measures one in k eligible ranks
	// (hotspots only).
	ContenderEvery, SampleEvery int
	// VecSegs x VecSegLen is the vectored payload (putv and scale).
	VecSegs, VecSegLen int
	// Actives ranks each issue Iters puts, Window at a time (scale only).
	Actives, Window int
	// Crashes is the crash-stop fault count drawn from the seed (chaos only).
	Crashes int
}

// workloads is the benchmark's fixed workload table. Sizes are chosen so
// one complete run (setup, run, teardown) takes a few host seconds at most
// on a 2-CPU host, leaving several runs per measurement for medians.
var workloads = []*Workload{
	{
		Name: "hotspot-putv",
		Why:  "bulk vectored puts into one hot CHT: fabric serialization, payload chunking and allocation dominate; no faults, so membership code never runs",
		Kind: hotspotPutV, Topo: "mfcg", Nodes: 64, PPN: 4, Iters: 20,
		ContenderEvery: 5, SampleEvery: 4, VecSegs: 32, VecSegLen: 256,
	},
	{
		Name: "hotspot-fadd",
		Why:  "the same armci path for atomics: CHT forwarding hops, credit waits and process handoffs dominate; fabric bytes are negligible",
		Kind: hotspotFAdd, Topo: "cfcg", Nodes: 64, PPN: 4, Iters: 20,
		ContenderEvery: 5, SampleEvery: 4,
	},
	{
		Name: "chaos-heal",
		Why:  "crash-stop faults with healing on: event heap, heartbeat probes and the armci retry and heal paths run only here",
		Kind: chaosHeal, Topo: "mfcg", Nodes: 128, PPN: 2, Iters: 100, Crashes: 8,
	},
	{
		Name: "scale-64k",
		Why:  "65,536 nodes with tiny traffic: node arenas and 64k CHT and rank processes make setup, teardown and host memory large",
		Kind: scaleIncast, Topo: "hypercube", Nodes: 65536, PPN: 1, Iters: 16,
		VecSegs: 8, VecSegLen: 64, Actives: 64, Window: 4,
	},
}

func lookup(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// chaosHorizon is the virtual-time window crash times are drawn from.
const chaosHorizon = 2 * sim.Millisecond

// Inputs are one workload's generated inputs. Everything random about a
// run — the crash schedule, the measured ranks, per-rank jitter, op
// targets, think times and payload bytes — is drawn here from the seed;
// the simulated program only reads these.
type Inputs struct {
	Seed int64
	// Measured lists the measured ranks in turn order (hotspots).
	Measured []int
	// Contender marks the ranks that hammer rank 0 (hotspots).
	Contender []bool
	// Start is each rank's start delay.
	Start []sim.Time
	// Salt perturbs the payload bytes each origin writes.
	Salt byte
	// Faults is the crash schedule and Victim the crashed nodes (chaos).
	Faults []faults.Fault
	Victim []bool
	// Targets are each survivor rank's op targets (chaos).
	Targets [][]int
	// Gaps are each rank's think times before (hotspots) or after (chaos)
	// its measured ops.
	Gaps [][]sim.Time
	// Active maps a rank to its active index, or -1 (scale).
	Active []int
}

// generate draws w's inputs from seed.
func generate(w *Workload, seed int64) (*Inputs, error) {
	n := w.Nodes * w.PPN
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Seed: seed, Start: make([]sim.Time, n), Salt: byte(rng.Intn(256))}
	switch w.Kind {
	case hotspotPutV, hotspotFAdd:
		in.Contender = make([]bool, n)
		for rank := w.PPN; rank < n; rank++ { // node 0 holds the target
			if rank%w.ContenderEvery == 0 {
				in.Contender[rank] = true
				in.Start[rank] = sim.Time(rng.Int63n(int64(sim.Microsecond)))
			}
		}
		// Every SampleEvery-th rank off node 0 is measured, from a
		// seed-drawn offset: the measured set keeps the same mix of node
		// positions and contender neighbours at every seed.
		for rank := w.PPN + rng.Intn(w.SampleEvery); rank < n; rank += w.SampleEvery {
			in.Measured = append(in.Measured, rank)
		}
		// A think time before each measured op varies its phase against
		// the contenders' service cycle, so latencies are not all one of
		// the few values a fixed phase gives.
		in.Gaps = make([][]sim.Time, n)
		for _, rank := range in.Measured {
			for i := 0; i < w.Iters; i++ {
				in.Gaps[rank] = append(in.Gaps[rank], 1+sim.Time(rng.Int63n(int64(2*sim.Microsecond))))
			}
		}
	case chaosHeal:
		spec, err := core.ParseSpec(w.Topo)
		if err != nil {
			return nil, err
		}
		topo, err := spec.Build(w.Nodes)
		if err != nil {
			return nil, err
		}
		in.Faults = faults.RandomNodeFaults(seed, w.Nodes, w.Crashes, chaosHorizon)
		in.Victim = make([]bool, w.Nodes)
		for _, f := range in.Faults {
			in.Victim[f.A] = true
		}
		var survivors []int
		for rank := 0; rank < n; rank++ {
			if !in.Victim[rank/w.PPN] {
				survivors = append(survivors, rank)
			}
		}
		// Each origin targets only survivors it still reaches with every
		// victim down at once. Healing must then complete every op, so a
		// failed op is a defect rather than a partition.
		// Think times of 1-11us keep the CHTs busy enough that most ops
		// queue behind others. Sparse traffic runs nearly every op
		// uncontended, which makes p50 one hop-count constant at every seed.
		in.Targets = make([][]int, n)
		in.Gaps = make([][]sim.Time, n)
		reach := make([]int, 0, len(survivors))
		for _, rank := range survivors {
			if rank%w.PPN == 0 {
				reach = reach[:0]
				for _, t := range survivors {
					if healedRoute(topo, in.Victim, rank/w.PPN, t/w.PPN) {
						reach = append(reach, t)
					}
				}
			}
			in.Start[rank] = sim.Time(rng.Int63n(int64(50 * sim.Microsecond)))
			for i := 0; i < w.Iters; i++ {
				in.Targets[rank] = append(in.Targets[rank], reach[rng.Intn(len(reach))])
				in.Gaps[rank] = append(in.Gaps[rank], sim.Microsecond+sim.Time(rng.Int63n(int64(10*sim.Microsecond))))
			}
		}
	case scaleIncast:
		in.Active = make([]int, n)
		for i := range in.Active {
			in.Active[i] = -1
		}
		// Actives are spread evenly over the machine at a seed-drawn
		// offset with half its low bits set. A hypercube node's distance
		// to rank 0 is its popcount, so every seed sees the same distances
		// over different dimensions, and the latencies measure the incast,
		// not the draw.
		stride := n / w.Actives
		low := bits.Len(uint(stride)) - 1
		off := 0
		for _, b := range rng.Perm(low)[:low/2] {
			off |= 1 << b
		}
		for i := 0; i < w.Actives; i++ {
			rank := off + i*stride
			in.Active[rank] = i
			// The incast opens at 10us, after every idle rank has exited.
			in.Start[rank] = 10*sim.Microsecond + sim.Time(rng.Int63n(int64(sim.Microsecond)))
		}
	}
	return in, nil
}

// healedRoute reports whether healed routing still leads from node a to
// node b when every victim is down.
func healedRoute(topo core.Topology, victim []bool, a, b int) bool {
	down := func(node int) bool { return victim[node] }
	for cur := a; cur != b; {
		next := topo.NextHop(cur, b)
		if down(next) {
			var ok bool
			if next, ok = core.ReplacementHop(topo, cur, b, down); !ok {
				return false
			}
		}
		cur = next
	}
	return true
}

// ledger is the benchmark's own per-rank account of one run: ops issued,
// completed and failed, and the virtual latency of every measured op. Each
// entry is written only by its own rank.
type ledger struct {
	issued, completed, failed []int
	lat                       [][]sim.Time
}

func newLedger(n int) ledger {
	return ledger{issued: make([]int, n), completed: make([]int, n), failed: make([]int, n), lat: make([][]sim.Time, n)}
}

// wait completes h for rank and returns its issue-to-completion latency.
func (l *ledger) wait(r *armci.Rank, h *armci.Handle, issued sim.Time) sim.Time {
	r.Wait(h)
	if h.Err() != nil {
		l.failed[r.Rank()]++
	} else {
		l.completed[r.Rank()]++
	}
	return r.Now() - issued
}

// instance is one run of a workload: its rank body, the allocations it
// needs and the check of its outcome.
type instance interface {
	// setup registers allocations and coordination events on a fresh runtime.
	setup(rt *armci.Runtime)
	body(r *armci.Rank)
	// check verifies the run's outcome; a non-nil error fails the run.
	check(rt *armci.Runtime) error
	// digest folds the outcome memory into the run fingerprint.
	digest(rt *armci.Runtime, h hash.Hash64)
	ledger() *ledger
}

func newInstance(w *Workload, in *Inputs) instance {
	n := w.Nodes * w.PPN
	switch w.Kind {
	case hotspotPutV, hotspotFAdd:
		return &hotspot{w: w, in: in, led: newLedger(n)}
	case chaosHeal:
		return &chaos{w: w, in: in, led: newLedger(n)}
	default:
		return &scale{w: w, in: in, led: newLedger(n)}
	}
}

// payload fills data with the bytes origin writes.
func payload(data []byte, origin int, salt byte) {
	for i := range data {
		data[i] = salt + byte(origin*13+i)
	}
}

// hotspot is the paper's Section V-B microbenchmark: measured ranks take
// turns issuing Iters ops into rank 0 while contenders hammer it
// continuously.
type hotspot struct {
	w        *Workload
	in       *Inputs
	led      ledger
	slot     int
	turn     []*sim.Event // per rank; nil unless measured
	next     []int        // per measured rank, the next one in turn order
	finished *sim.Event
}

func (h *hotspot) ledger() *ledger { return &h.led }

func (h *hotspot) setup(rt *armci.Runtime) {
	n := rt.NRanks()
	if h.w.Kind == hotspotPutV {
		// Disjoint per-origin slots so the check can verify every origin.
		h.slot = h.w.VecSegs * h.w.VecSegLen * 2
		rt.Alloc("hot", 8+n*h.slot)
	} else {
		rt.Alloc("hot", 8)
	}
	eng := rt.Engine()
	h.turn = make([]*sim.Event, n)
	h.next = make([]int, n)
	prev := -1
	for _, rank := range h.in.Measured {
		h.turn[rank] = sim.NewEvent(eng, "turn")
		if prev >= 0 {
			h.next[prev] = rank
		}
		prev = rank
	}
	if prev >= 0 {
		h.next[prev] = -1
	}
	h.finished = sim.NewEvent(eng, "finished")
	eng.At(0, func() {
		if len(h.in.Measured) == 0 {
			h.finished.Fire()
		} else {
			h.turn[h.in.Measured[0]].Fire()
		}
	})
}

func (h *hotspot) body(r *armci.Rank) {
	if r.Node() == 0 {
		return // rank 0 is the target; its node-mates stay idle
	}
	rank := r.Rank()
	// Payload buffers are hoisted out of the op loop, so the workload
	// allocates nothing per op that would be charged to the runtime.
	var op func() *armci.Handle
	if h.w.Kind == hotspotPutV {
		base := 8 + rank*h.slot
		segs := make([]armci.Seg, h.w.VecSegs)
		for i := range segs {
			segs[i] = armci.Seg{Off: base + i*h.w.VecSegLen*2, Len: h.w.VecSegLen}
		}
		data := make([]byte, h.w.VecSegs*h.w.VecSegLen)
		payload(data, rank, h.in.Salt)
		op = func() *armci.Handle { return r.NbPutV(0, "hot", segs, data) }
	} else {
		op = func() *armci.Handle { return r.NbFetchAdd(0, "hot", 0, 1) }
	}
	do := func() sim.Time {
		h.led.issued[rank]++
		return h.led.wait(r, op(), r.Now())
	}
	measure := func() {
		for k := 0; k < h.w.Iters; k++ {
			r.Sleep(h.in.Gaps[rank][k])
			h.led.lat[rank] = append(h.led.lat[rank], do())
		}
		// Hand the turn on through a global event, as the paper's
		// "processes idle in a barrier" would.
		r.Runtime().Engine().AtGlobal(r.Node(), func() {
			if nx := h.next[rank]; nx >= 0 {
				h.turn[nx].Fire()
			} else {
				h.finished.Fire()
			}
		})
	}
	ev := h.turn[rank]
	if !h.in.Contender[rank] {
		if ev != nil {
			ev.Wait(r.Proc())
			measure()
		}
		return
	}
	r.Sleep(h.in.Start[rank])
	for !h.finished.Fired() {
		if ev != nil && ev.Fired() {
			measure()
			ev = nil
			continue
		}
		do()
	}
}

func (h *hotspot) check(rt *armci.Runtime) error {
	mem := rt.Memory(0, "hot")
	var completed int
	for rank, c := range h.led.completed {
		completed += c
		if h.led.failed[rank] != 0 {
			return fmt.Errorf("rank %d: %d ops failed in a fault-free run", rank, h.led.failed[rank])
		}
	}
	for _, rank := range h.in.Measured {
		if len(h.led.lat[rank]) != h.w.Iters {
			return fmt.Errorf("measured rank %d completed %d of %d ops", rank, len(h.led.lat[rank]), h.w.Iters)
		}
	}
	if h.w.Kind == hotspotFAdd {
		if got := armci.GetInt64(mem, 0); got != int64(completed) {
			return fmt.Errorf("counter at rank 0 is %d, want %d fetch-&-adds", got, completed)
		}
		return nil
	}
	want := make([]byte, h.w.VecSegs*h.w.VecSegLen)
	zero := make([]byte, h.w.VecSegLen)
	for rank, c := range h.led.completed {
		payload(want, rank, h.in.Salt)
		base := 8 + rank*h.slot
		for i := 0; i < h.w.VecSegs; i++ {
			got := mem[base+i*h.w.VecSegLen*2:][:h.w.VecSegLen]
			exp := want[i*h.w.VecSegLen:][:h.w.VecSegLen]
			if c == 0 {
				exp = zero
			}
			if !bytes.Equal(got, exp) {
				return fmt.Errorf("rank 0 slot of origin %d, segment %d: wrong bytes after %d puts", rank, i, c)
			}
		}
	}
	return nil
}

func (h *hotspot) digest(rt *armci.Runtime, hs hash.Hash64) { hs.Write(rt.Memory(0, "hot")) }

// chaos is a crash/heal run: each surviving rank accumulates +1 into its own
// ledger slot at survivor targets while the seed's crash schedule plays out.
type chaos struct {
	w   *Workload
	in  *Inputs
	led ledger
}

func (c *chaos) ledger() *ledger { return &c.led }

func (c *chaos) setup(rt *armci.Runtime) { rt.Alloc("chaos", 8*rt.NRanks()) }

func (c *chaos) body(r *armci.Rank) {
	rank := r.Rank()
	if c.in.Victim[r.Node()] {
		// Victims idle past the detection window so membership monitors
		// outlast every crash, confirmation and recovery.
		r.Sleep(2 * chaosHorizon)
		return
	}
	vals := []float64{1}
	r.Sleep(c.in.Start[rank])
	for i, target := range c.in.Targets[rank] {
		c.led.issued[rank]++
		t0 := r.Now()
		c.led.lat[rank] = append(c.led.lat[rank], c.led.wait(r, r.NbAcc(target, "chaos", 8*rank, 1.0, vals), t0))
		r.Sleep(c.in.Gaps[rank][i])
	}
}

func (c *chaos) applied(rt *armci.Runtime, origin int) float64 {
	var sum float64
	for t := 0; t < rt.NRanks(); t++ {
		sum += armci.GetFloat64(rt.Memory(t, "chaos"), 8*origin)
	}
	return sum
}

func (c *chaos) check(rt *armci.Runtime) error {
	for o := 0; o < rt.NRanks(); o++ {
		applied := c.applied(rt, o)
		if c.in.Victim[o/c.w.PPN] {
			if applied != 0 {
				return fmt.Errorf("victim rank %d's slots sum to %g, want 0", o, applied)
			}
			continue
		}
		done, failed := c.led.completed[o], c.led.failed[o]
		if c.led.issued[o] != done+failed || c.led.issued[o] != c.w.Iters {
			return fmt.Errorf("rank %d issued %d ops: %d completed + %d failed, want %d", o, c.led.issued[o], done, failed, c.w.Iters)
		}
		if applied < float64(done) {
			return fmt.Errorf("rank %d lost ops: %d completed but %g applied", o, done, applied)
		}
		if applied > float64(done+failed) {
			return fmt.Errorf("rank %d double-applied: %g applied exceeds %d completed + %d failed", o, applied, done, failed)
		}
	}
	return rt.CheckCreditInvariants()
}

func (c *chaos) digest(rt *armci.Runtime, h hash.Hash64) {
	for t := 0; t < rt.NRanks(); t++ {
		h.Write(rt.Memory(t, "chaos"))
	}
}

// scale is the large-N incast: Actives ranks issue windowed vectored puts
// into their own slot at rank 0; every other rank exits at once.
type scale struct {
	w   *Workload
	in  *Inputs
	led ledger
}

func (s *scale) ledger() *ledger { return &s.led }

func (s *scale) setup(rt *armci.Runtime) {
	rt.Alloc("hot", 8+s.w.Actives*s.w.VecSegs*s.w.VecSegLen)
}

func (s *scale) body(r *armci.Rank) {
	rank := r.Rank()
	idx := s.in.Active[rank]
	if idx < 0 {
		return
	}
	segs := make([]armci.Seg, s.w.VecSegs)
	base := 8 + idx*s.w.VecSegs*s.w.VecSegLen
	for i := range segs {
		segs[i] = armci.Seg{Off: base + i*s.w.VecSegLen, Len: s.w.VecSegLen}
	}
	data := make([]byte, s.w.VecSegs*s.w.VecSegLen)
	payload(data, rank, s.in.Salt)
	hs := make([]*armci.Handle, s.w.Window)
	t0 := make([]sim.Time, s.w.Window)
	r.Sleep(s.in.Start[rank])
	for k := 0; k < s.w.Iters; k += s.w.Window {
		w := min(s.w.Window, s.w.Iters-k)
		for j := 0; j < w; j++ {
			s.led.issued[rank]++
			t0[j] = r.Now()
			hs[j] = r.NbPutV(0, "hot", segs, data)
		}
		for j := 0; j < w; j++ {
			s.led.lat[rank] = append(s.led.lat[rank], s.led.wait(r, hs[j], t0[j]))
		}
	}
}

func (s *scale) check(rt *armci.Runtime) error {
	mem := rt.Memory(0, "hot")
	want := make([]byte, s.w.VecSegs*s.w.VecSegLen)
	for rank, idx := range s.in.Active {
		if idx < 0 {
			continue
		}
		if s.led.completed[rank] != s.w.Iters || s.led.failed[rank] != 0 {
			return fmt.Errorf("active rank %d completed %d of %d puts (%d failed)", rank, s.led.completed[rank], s.w.Iters, s.led.failed[rank])
		}
		payload(want, rank, s.in.Salt)
		if !bytes.Equal(mem[8+idx*len(want):][:len(want)], want) {
			return fmt.Errorf("rank 0 slot of active rank %d holds wrong bytes", rank)
		}
	}
	return nil
}

func (s *scale) digest(rt *armci.Runtime, h hash.Hash64) { h.Write(rt.Memory(0, "hot")) }
