// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are runtime coroutines (iter.Pull, see proc.go): a
// runner resumes one by switching it onto the runner's own thread, and the
// process hands control back at blocking points (Sleep, Queue.Get,
// Resource.Acquire, ...). In serial mode exactly one of them — the Run loop
// or a single process — executes at any moment.
//
// Events are ordered by the three-part key (time, seq, origin), where origin
// is the owner id of the context that created the event and seq is a
// per-origin creation counter. Because each origin's creation stream is
// independent of how other origins interleave, the key — and therefore the
// execution order — is identical whether the engine runs serially or sharded
// (see shard.go), which is the repository's bit-identical determinism
// contract (docs/PARALLELISM.md).
//
// The kernel is the substrate on which the repository models the Cray XT5
// interconnect (package fabric) and the ARMCI runtime (package armci); in
// particular its deadlock detector is what lets tests demonstrate that LDF
// forwarding is deadlock-free while naive forwarding is not.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a floating-point number of microseconds, the unit the
// paper's latency figures use.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// GlobalOwner is the pseudo-owner of engine-level events: fault schedules,
// watchdog checks, run-wide coordination. Global events always execute on
// the coordinator with every shard quiesced (a "serial instant"), so they
// may touch any owner's state.
const GlobalOwner = -1

// Event payload kinds. The hot paths of a large simulation — process
// switches, wakes, fabric hops, protocol deliveries — used to allocate one
// closure per event; kind dispatch replaces them with preallocated fields on
// the event record itself, so scheduling allocates nothing beyond amortized
// heap growth (the allocs/op contract of docs/SCALING.md).
const (
	// evFn runs a plain closure (the general-purpose cold path).
	evFn uint8 = iota
	// evArg runs a preallocated callback with its argument. Callers pass a
	// long-lived func value (e.g. a method value stored once at setup) plus
	// a pointer-shaped arg, so neither boxes a new allocation per event.
	evArg
	// evSwitch resumes the process in arg (Sleep wake-ups, spawn starts).
	evSwitch
	// evWake is evSwitch plus clearing the process's wake-pending flag.
	evWake
)

type event struct {
	t      Time
	seq    uint64
	origin int32
	owner  int32
	kind   uint8
	fn     func()
	afn    func(any)
	arg    any
}

// keyLess orders events by the determinism-contract key (time, seq, origin).
func keyLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.origin < b.origin
}

// eventHeap is a hand-rolled binary min-heap ordered by (time, seq, origin).
// Scheduling is the simulator's hottest path: routing a single one-sided
// request schedules an event per link hop, CHT poll and credit return, so
// container/heap's interface-boxed Push/Pop (one heap allocation plus two
// indirect calls per event) is replaced with direct sift operations on the
// slice.
type eventHeap []event

func (h eventHeap) Len() int    { return len(h) }
func (h eventHeap) peek() event { return h[0] }

func (h eventHeap) less(i, j int) bool { return keyLess(h[i], h[j]) }

func (h *eventHeap) pushEvent(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) popEvent() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the fn reference so the closure can be collected
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// Engine drives a simulation. Create one with New, add processes with Spawn
// (or GoAt), then call Run.
type Engine struct {
	now    Time
	events eventHeap // the global lane; the only heap in serial mode
	// seqs holds the per-origin event-creation counters that form the seq
	// component of the ordering key; index is origin+1 so GlobalOwner maps
	// to slot 0. Distinct origins never share a slot, so shard workers
	// advance their owners' counters without contention.
	seqs  []uint64
	procs []*Proc
	// ctxOwner is the owner of the event the coordinator (or serial loop) is
	// currently executing; events created from that context inherit it as
	// their origin and default placement.
	ctxOwner int
	rng      *rand.Rand
	running  bool
	tracer   Tracer
	// resumes counts process resumptions, the progress signal the Watchdog
	// samples: a simulation whose event queue stays busy without ever
	// resuming a process is livelocked, not working.
	resumes uint64
	// executed counts events popped by the run loop; the Watchdog compares
	// it with resumes to tell churn (events firing, nobody resuming) from a
	// quiet wait on a far-future event.
	executed uint64
	// halt, when set (see Halt), aborts the run loop before the next event.
	halt error

	// rngSrc wraps the RNG's source to count draws, and rngSeed remembers
	// the seed, so DigestSection can digest the generator's position
	// (seed, draws) without serializing its internal state.
	rngSrc  *countingSource
	rngSeed int64

	// Digest hooks (ConfigureDigests): dgFn fires at every digest
	// boundary k*dgEvery (k >= dgNext) the run loop passes — the first
	// moment the next pending event's time exceeds the boundary, which is
	// by construction a quiescent point: all events at or before the
	// boundary have executed, no window is open, outboxes are empty.
	dgEvery Time
	dgNext  int64
	dgFn    func(at Time, index int64)

	shardState
}

// countingSource wraps a rand.Source64 and counts draws. A digest needs only
// (seed, draws) to identify the generator's position: both run modes draw in
// the same deterministic order, so equal counts at a quiescent boundary mean
// equal generator state.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

// Uint64 preserves rand.Rand's Source64 fast path, keeping the value stream
// bit-identical to an unwrapped rand.NewSource.
func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// New creates an engine with virtual time 0 and a deterministic RNG.
func New() *Engine {
	e := &Engine{
		ctxOwner: GlobalOwner,
		seqs:     make([]uint64, 1),
	}
	e.Seed(1)
	return e
}

// Seed reseeds the engine's deterministic RNG.
func (e *Engine) Seed(s int64) {
	e.rngSrc = newCountingSource(s)
	e.rngSeed = s
	e.rng = rand.New(e.rngSrc)
}

// Rand returns the engine's RNG. Using it from process bodies keeps serial
// simulations deterministic (there is only ever one runner at a time). It is
// not part of the sharded determinism contract: workloads that run with
// shards > 1 must draw randomness from per-owner sources instead.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Now returns current virtual time in coordinator context. During a sharded
// window it does not see the executing shard's clock — use NowOn (or
// Proc.Now) from owner contexts.
func (e *Engine) Now() Time { return e.now }

// NowOn returns current virtual time in owner's context: the owner's shard
// clock while a sharded window is executing, the engine clock otherwise
// (serial mode, setup, and serial instants).
func (e *Engine) NowOn(owner int) Time {
	if owner >= 0 && e.windowActive.Load() {
		return e.lanes[e.shardOf[owner]].now
	}
	return e.now
}

// ctxFor resolves the scheduling context for an event created by owner
// `from`: the shard lane executing it (nil for the coordinator or serial
// loop), that context's current time, and the origin for the ordering key.
func (e *Engine) ctxFor(from int) (*lane, Time, int) {
	if e.windowActive.Load() {
		if from < 0 {
			panic("sim: global-context scheduling from a shard worker; use AtGlobal with the owner the caller runs as")
		}
		ln := e.lanes[e.shardOf[from]]
		return ln, ln.now, ln.ctxOwner
	}
	return nil, e.now, e.ctxOwner
}

// exec dispatches one popped event by kind. It replaces direct fn() calls in
// the run loops so the hot event kinds carry no closure.
func (e *Engine) exec(ev *event) {
	switch ev.kind {
	case evFn:
		ev.fn()
	case evArg:
		ev.afn(ev.arg)
	case evSwitch:
		e.switchTo(ev.arg.(*Proc))
	default: // evWake
		p := ev.arg.(*Proc)
		p.wakePending = false
		e.switchTo(p)
	}
}

// schedule creates a closure event at time t; it is the evFn-kind shorthand
// for scheduleEv.
func (e *Engine) schedule(src *lane, now Time, origin, owner int, t Time, fn func()) {
	e.scheduleEv(src, now, origin, owner, t, event{kind: evFn, fn: fn})
}

// scheduleArg creates an evArg event running fn(arg) at time t.
func (e *Engine) scheduleArg(src *lane, now Time, origin, owner int, t Time, fn func(any), arg any) {
	e.scheduleEv(src, now, origin, owner, t, event{kind: evArg, afn: fn, arg: arg})
}

// scheduleProc creates an evSwitch or evWake event resuming p at time t.
func (e *Engine) scheduleProc(src *lane, now Time, origin, owner int, t Time, kind uint8, p *Proc) {
	e.scheduleEv(src, now, origin, owner, t, event{kind: kind, arg: p})
}

// scheduleEv stamps ev's ordering key — time t clamped to the creating
// context's now, the next seq of origin's creation stream — and routes it to
// the right heap or cross-shard outbox. src is the creating lane (nil =
// coordinator). Payload representation (closure vs kind record) plays no part
// in the key, which is what lets hot paths switch representations without
// disturbing the bit-identity contract.
func (e *Engine) scheduleEv(src *lane, now Time, origin, owner int, t Time, ev event) {
	if t < now {
		t = now
	}
	idx := origin + 1
	if idx >= len(e.seqs) {
		if e.nshards > 1 {
			panic(fmt.Sprintf("sim: origin %d outside the sharded owner space", origin))
		}
		grown := make([]uint64, idx+1)
		copy(grown, e.seqs)
		e.seqs = grown
	}
	e.seqs[idx]++
	ev.t, ev.seq, ev.origin, ev.owner = t, e.seqs[idx], int32(origin), int32(owner)
	var dst *lane
	if owner >= 0 && e.nshards > 1 {
		dst = e.lanes[e.shardOf[owner]]
	}
	if src == nil {
		if dst == nil {
			e.events.pushEvent(ev)
		} else {
			dst.heap.pushEvent(ev)
		}
		return
	}
	if dst == src {
		src.heap.pushEvent(ev)
		return
	}
	// Leaving the creating shard: the event must clear the current lookahead
	// window, or conservative execution would already have passed its time.
	if ev.t < src.end {
		panic(fmt.Sprintf("sim: cross-shard event at t=%v violates the lookahead window ending at %v (lookahead %v too large for this workload)",
			ev.t, src.end, e.lookahead))
	}
	if dst == nil {
		src.outGlobal = append(src.outGlobal, ev)
		return
	}
	src.outCross[dst.idx] = append(src.outCross[dst.idx], ev)
}

// At schedules fn to run in engine context at absolute virtual time t.
// Scheduling in the past is clamped to now. It may be called from serial
// mode, setup, or coordinator context; shard-worker contexts must use
// AtOn/AtFrom with an explicit owner.
func (e *Engine) At(t Time, fn func()) {
	if e.windowActive.Load() {
		panic("sim: At called from a shard worker; use AtOn/AtFrom with an explicit owner")
	}
	e.schedule(nil, e.now, e.ctxOwner, e.ctxOwner, t, fn)
}

// After schedules fn to run in engine context d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtOn schedules fn at absolute time t executing as owner. The caller must
// be running as owner (or on the coordinator): it is the owner-explicit form
// of At for code that runs inside sharded windows.
func (e *Engine) AtOn(owner int, t Time, fn func()) { e.AtFrom(owner, owner, t, fn) }

// AfterOn schedules fn to run as owner d after owner's current time.
func (e *Engine) AfterOn(owner int, d Time, fn func()) {
	src, now, origin := e.ctxFor(owner)
	e.schedule(src, now, origin, owner, now+d, fn)
}

// AtFrom schedules fn at absolute time t executing as owner `to`, created
// from the context of owner `from` (which the caller must be running as).
// When from and to live on different shards the event crosses shards at the
// next window edge and t must be at least one lookahead in the future.
func (e *Engine) AtFrom(from, to int, t Time, fn func()) {
	src, now, origin := e.ctxFor(from)
	e.schedule(src, now, origin, to, t, fn)
}

// AtOnArg is AtOn without the closure: it schedules fn(arg) at absolute time
// t executing as owner. Pass a long-lived func value (typically a method
// value stored once at setup) and a pointer-shaped arg — then the event
// allocates nothing, which is why the fabric and protocol hot paths use the
// Arg forms (see docs/SCALING.md). Timing, ordering and sharding semantics
// are exactly AtOn's.
func (e *Engine) AtOnArg(owner int, t Time, fn func(any), arg any) {
	e.AtFromArg(owner, owner, t, fn, arg)
}

// AfterOnArg is AfterOn without the closure: fn(arg) runs as owner d after
// owner's current time. See AtOnArg for the allocation contract.
func (e *Engine) AfterOnArg(owner int, d Time, fn func(any), arg any) {
	src, now, origin := e.ctxFor(owner)
	e.scheduleArg(src, now, origin, owner, now+d, fn, arg)
}

// AtFromArg is AtFrom without the closure: fn(arg) runs at absolute time t
// as owner `to`, created from owner `from`'s context. See AtOnArg for the
// allocation contract and AtFrom for the cross-shard timing rule.
func (e *Engine) AtFromArg(from, to int, t Time, fn func(any), arg any) {
	src, now, origin := e.ctxFor(from)
	e.scheduleArg(src, now, origin, to, t, fn, arg)
}

// AtGlobal schedules fn on the global lane one lookahead after the caller's
// current time. Global events execute as serial instants with every shard
// quiesced, so fn may mutate state shared across owners (barrier counters,
// run-wide tallies). The fixed +lookahead delay is what lets a shard safely
// reach back to the global lane, and it is applied identically in serial
// mode so both modes agree on timing.
func (e *Engine) AtGlobal(from int, fn func()) {
	src, now, origin := e.ctxFor(from)
	e.schedule(src, now, origin, GlobalOwner, now+e.lookahead, fn)
}

// Lookahead returns the conservative synchronization window configured by
// ConfigureShards (0 if never configured).
func (e *Engine) Lookahead() Time { return e.lookahead }

// Spawn creates a simulated process that starts executing body at the current
// virtual time, pinned to the creating context's owner. The returned Proc
// handle is also passed to body.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, e.now, name, body, false)
}

// SpawnOn is Spawn with an explicit owner pin: the process and all events it
// creates belong to owner, so in sharded mode it runs on owner's shard.
func (e *Engine) SpawnOn(owner int, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, e.now, name, body, false)
}

// SpawnDaemon creates a process that does not keep the simulation alive: Run
// returns successfully even if daemon processes are still blocked (e.g.
// server loops waiting for requests that will never come).
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, e.now, name, body, true)
}

// SpawnDaemonOn is SpawnDaemon with an explicit owner pin.
func (e *Engine) SpawnDaemonOn(owner int, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, e.now, name, body, true)
}

// GoAt schedules a process to start at absolute time t.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, t, name, body, false)
}

// GoAtOn schedules a process pinned to owner to start at absolute time t.
func (e *Engine) GoAtOn(owner int, t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, t, name, body, false)
}

// DeadlockError is returned by Run when the event queue drains while
// non-daemon processes are still blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: blocked-on" entries for stuck non-daemon procs
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v, %d blocked process(es): %s",
		d.At, len(d.Blocked), strings.Join(d.Blocked, "; "))
}

// TimeLimitError is returned by RunUntil when the horizon is reached with
// events still pending.
type TimeLimitError struct {
	Limit   Time
	Pending int
}

func (t *TimeLimitError) Error() string {
	return fmt.Sprintf("sim: time limit %v reached with %d pending event(s)", t.Limit, t.Pending)
}

// Run executes events until the queue drains. It returns nil if every
// non-daemon process finished, and a *DeadlockError otherwise.
func (e *Engine) Run() error { return e.run(-1) }

// RunUntil executes events with timestamps <= limit. If the queue drains it
// behaves like Run; otherwise it returns a *TimeLimitError with the clock
// left at limit.
func (e *Engine) RunUntil(limit Time) error { return e.run(limit) }

func (e *Engine) run(limit Time) error {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.nshards > 1 {
		return e.runSharded(limit)
	}
	for e.events.Len() > 0 {
		if e.halt != nil {
			return e.halt
		}
		if e.dgFn != nil {
			tEff := e.events.peek().t
			if limit >= 0 && limit+1 < tEff {
				tEff = limit + 1
			}
			e.fireDigests(tEff)
			if e.halt != nil {
				return e.halt
			}
		}
		if limit >= 0 && e.events.peek().t > limit {
			e.now = limit
			return &TimeLimitError{Limit: limit, Pending: e.events.Len()}
		}
		ev := e.events.popEvent()
		e.now = ev.t
		e.ctxOwner = int(ev.owner)
		e.executed++
		e.exec(&ev)
	}
	e.ctxOwner = GlobalOwner
	if blocked := e.blockedNonDaemons(); len(blocked) > 0 {
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}

func (e *Engine) blockedNonDaemons() []string {
	var blocked []string
	for _, p := range e.procs {
		if p.state == procBlocked && !p.daemon {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.name, p.BlockedOn()))
		}
	}
	sort.Strings(blocked)
	return blocked
}

// Shutdown terminates every parked or not-yet-started process, releasing
// their goroutines, and stops any shard workers. Call it after Run (or after
// abandoning a simulation) in long-lived programs that create many engines;
// the engine must not be running. Processes are unwound via a recovered
// panic, so their deferred functions still execute.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while engine is running")
	}
	for _, p := range e.procs {
		switch p.state {
		case procBlocked:
			p.stop() // the pending park returns and the body unwinds
		case procNew:
			p.stop() // the body never starts, so exit it here
			p.exit()
		}
	}
	e.events = nil
	e.stopWorkers()
}

// BlockedProcs returns the names of all currently blocked non-daemon
// processes (useful after a TimeLimitError to diagnose livelock).
func (e *Engine) BlockedProcs() []string {
	return e.blockedNonDaemons()
}

// Resumes returns how many times any process has been resumed, the engine's
// monotone progress counter. The Watchdog samples it to tell "working" from
// "wedged": events that fire without ever resuming a process make no
// application progress. In sharded mode it is exact at serial instants
// (which is when the Watchdog reads it).
func (e *Engine) Resumes() uint64 { return e.resumes }

// PendingEvents returns the number of scheduled events not yet executed,
// across the global lane and every shard.
func (e *Engine) PendingEvents() int {
	n := e.events.Len()
	for _, ln := range e.lanes {
		n += ln.heap.Len()
	}
	return n
}

// Halt requests that the run loop stop before executing its next event (or,
// sharded, before dispatching the next window) and return err from
// Run/RunUntil. It is how the Watchdog aborts a wedged simulation: the
// engine state stays consistent, so Shutdown still works. Calling it outside
// a run (or with nil) is harmless.
func (e *Engine) Halt(err error) { e.halt = err }

// liveNonDaemons counts non-daemon processes that have not finished.
func (e *Engine) liveNonDaemons() int {
	n := 0
	for _, p := range e.procs {
		if !p.daemon && p.state != procDone {
			n++
		}
	}
	return n
}

// BlockedDaemons returns the blocking points of all parked daemon processes,
// for diagnosing deadlocks that thread through server loops (e.g. CHTs
// waiting on downstream buffer credits).
func (e *Engine) BlockedDaemons() []string {
	var out []string
	for _, p := range e.procs {
		if p.state == procBlocked && p.daemon {
			out = append(out, fmt.Sprintf("%s: %s", p.name, p.BlockedOn()))
		}
	}
	sort.Strings(out)
	return out
}
