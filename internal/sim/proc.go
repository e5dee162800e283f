//go:build go1.23

// Processes are iter.Pull coroutines (Go 1.23); go.mod says why it stays 1.22.

package sim

import (
	"fmt"
	"iter"
)

// procState tracks the lifecycle of a simulated process.
type procState uint8

const (
	procNew procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process. All methods must be called from within the
// process's own body function; they are not safe to call from other
// goroutines or from engine-context callbacks.
type Proc struct {
	e    *Engine
	id   int
	name string
	// next runs the process's coroutine until it parks or finishes, on the
	// calling runner's thread; stop unwinds a parked or never-started one;
	// yield, called from the body, hands control back to the runner.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// blockedOn is the static blocking-point label (cold paths); hot-path
	// primitives park with a lazy blocker+blockArg pair instead, so a park
	// formats no string unless a deadlock report or tracer reads one.
	blockedOn   string
	blockedAt   blocker
	blockArg    int64
	state       procState
	daemon      bool
	wakePending bool
	// owner pins the process to a scheduling owner: its resume events carry
	// this owner, so in sharded mode the process always runs on the owner's
	// shard (or on the coordinator during serial instants).
	owner int
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn-order identifier.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.e }

// Owner returns the scheduling owner the process is pinned to
// (GlobalOwner if it was spawned without one).
func (p *Proc) Owner() int { return p.owner }

// Now returns the current virtual time in the process's context.
func (p *Proc) Now() Time { return p.e.NowOn(p.owner) }

// BlockedOn reports the label of the blocking point the process is currently
// parked at ("" if running or done). Used by the deadlock reporter.
func (p *Proc) BlockedOn() string {
	if p.blockedAt != nil {
		return p.blockedAt.blockLabel(p.blockArg)
	}
	return p.blockedOn
}

// blocker supplies a parked process's blocking-point label on demand. The
// synchronization primitives implement it so the hot paths never pay for
// fmt.Sprintf: the label is materialized only when a deadlock report, a
// scheduling tracer, or a BlockedOn caller actually asks for it.
type blocker interface {
	blockLabel(arg int64) string
}

func (e *Engine) spawnAt(owner int, t Time, name string, body func(p *Proc), daemon bool) *Proc {
	if e.windowActive.Load() {
		panic("sim: Spawn from a shard worker is not supported; spawn before Run or from a global event")
	}
	p := &Proc{e: e, id: len(e.procs), name: name, state: procNew, daemon: daemon, owner: owner}
	e.procs = append(e.procs, p)
	e.trace(TraceSpawn, p, "")
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		runBody(body, p)
	})
	e.scheduleProc(nil, e.now, e.ctxOwner, owner, t, evSwitch, p)
	return p
}

// killSignal is panicked through a process's stack to unwind it during
// Shutdown; runBody swallows it and nothing else.
type killSignal struct{}

// runBody runs body as p's coroutine. Any panic other than killSignal
// propagates out of the p.next call that resumed p, on the runner's goroutine.
func runBody(body func(p *Proc), p *Proc) {
	defer func() {
		p.exit()
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
	}()
	body(p)
}

func (p *Proc) exit() {
	p.state = procDone
	p.blockedOn, p.blockedAt = "", nil
	p.e.trace(TraceExit, p, "")
}

// switchTo runs p until it parks or finishes. It must be invoked from a
// runner context (inside an event callback): the serial loop, the
// coordinator during an instant, or the shard worker owning p.
func (e *Engine) switchTo(p *Proc) {
	if p.state == procDone || p.state == procRunning {
		return
	}
	p.state = procRunning
	p.blockedOn, p.blockedAt = "", nil
	if e.windowActive.Load() {
		e.lanes[e.shardOf[p.owner]].resumes++
	} else {
		e.resumes++
		e.trace(TraceResume, p, "")
	}
	p.next()
}

// park is called from process context: it returns control to the current
// runner and blocks until the process is resumed by a future switchTo.
func (p *Proc) park(label string) {
	p.blockedOn, p.blockedAt = label, nil
	p.parkWait(label)
}

// parkOn is park with a lazily formatted label (see blocker). With a tracer
// installed the label is still materialized at park time, so traces are
// identical either way.
func (p *Proc) parkOn(b blocker, arg int64) {
	p.blockedOn, p.blockedAt, p.blockArg = "", b, arg
	label := ""
	if p.e.tracer != nil {
		label = b.blockLabel(arg)
	}
	p.parkWait(label)
}

// parkWait yields to the runner; a false return means Shutdown stopped the
// process, which unwinds its body.
func (p *Proc) parkWait(traceLabel string) {
	p.state = procBlocked
	p.e.trace(TracePark, p, traceLabel)
	if !p.yield(struct{}{}) {
		panic(killSignal{})
	}
}

// wake schedules the process to be resumed at the current virtual time. It
// is idempotent: a process with a wake already pending is not scheduled
// again, so primitives may over-notify safely. The wake event carries the
// process's owner, so callers must run as that owner or on the coordinator.
func (p *Proc) wake() {
	if p.wakePending || p.state == procDone {
		return
	}
	p.wakePending = true
	e := p.e
	src, now, origin := e.ctxFor(p.owner)
	e.scheduleProc(src, now, origin, p.owner, now, evWake, p)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving FIFO fairness).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.e
	src, now, origin := e.ctxFor(p.owner)
	e.scheduleProc(src, now, origin, p.owner, now+d, evSwitch, p)
	p.parkOn(sleepLabel{}, int64(d))
}

// sleepLabel formats a sleeping process's blocking label on demand; the
// zero-size value boxes into the blocker interface without allocating.
type sleepLabel struct{}

func (sleepLabel) blockLabel(arg int64) string { return fmt.Sprintf("sleep(%v)", Time(arg)) }

// Yield gives other ready processes and events at the current instant a
// chance to run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }
