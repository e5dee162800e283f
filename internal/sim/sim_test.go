package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2.000us"},
		{1500 * Microsecond, "1.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeMicrosSeconds(t *testing.T) {
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros = %v, want 2.5", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	mustRun(t, e)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	mustRun(t, e)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of spawn order: %v", got)
		}
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := New()
	var at Time
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past
	})
	mustRun(t, e)
	if at != 100 {
		t.Errorf("past event ran at %v, want clamp to 100", at)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	mustRun(t, e)
	if wake != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", wake)
	}
}

func TestProcSleepNegativeIsZero(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	mustRun(t, e)
}

func TestInterleavedProcs(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	mustRun(t, e)
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := New()
	var started Time
	e.GoAt(77, "late", func(p *Proc) { started = p.Now() })
	mustRun(t, e)
	if started != 77 {
		t.Errorf("started at %v, want 77", started)
	}
}

func TestYieldPreservesFairness(t *testing.T) {
	e := New()
	var trace []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 2; k++ {
				trace = append(trace, i)
				p.Yield()
			}
		})
	}
	mustRun(t, e)
	want := []int{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i * 10)
			p.Sleep(1)
		}
	})
	mustRun(t, e)
	if want := []int{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if q.Puts() != 3 {
		t.Errorf("Puts = %d, want 3", q.Puts())
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v := q.Get(p)
			order = append(order, fmt.Sprintf("%s=%d", name, v))
		})
	}
	e.GoAt(10, "producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	mustRun(t, e)
	want := []string{"w1=1", "w2=2", "w3=3"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := New()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	q.Put("x")
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %q,%v want x,true", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after drain", q.Len())
	}
}

func TestQueueMaxLenHighWater(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	q.TryGet()
	q.Put(9)
	if q.MaxLen() != 5 {
		t.Errorf("MaxLen = %d, want 5", q.MaxLen())
	}
}

func TestQueueClear(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	if q.Clear() != 0 {
		t.Error("Clear on empty queue dropped items")
	}
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	q.TryGet() // advance head so Clear must handle a nonzero offset
	if got := q.Clear(); got != 4 {
		t.Errorf("Clear dropped %d items, want 4", got)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after Clear", q.Len())
	}
	// The queue must remain usable: puts after a clear arrive in order.
	q.Put(7)
	q.Put(8)
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Errorf("TryGet after Clear = %d,%v want 7,true", v, ok)
	}
	q.TryGet() // drain the 8
	// A parked getter stays parked across Clear and is served by a later Put.
	var got int
	e.Spawn("getter", func(p *Proc) { got = q.Get(p) })
	e.GoAt(5, "clear-then-put", func(p *Proc) {
		q.Clear()
		p.Sleep(1)
		q.Put(42)
	})
	mustRun(t, e)
	if got != 42 {
		t.Errorf("parked getter got %d, want 42", got)
	}
}

func TestQueueCompaction(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	e.Spawn("p", func(p *Proc) {
		for round := 0; round < 10; round++ {
			for i := 0; i < 100; i++ {
				q.Put(round*100 + i)
			}
			for i := 0; i < 100; i++ {
				if got := q.Get(p); got != round*100+i {
					t.Fatalf("round %d item %d: got %d", round, i, got)
				}
			}
		}
	})
	mustRun(t, e)
}

func TestResourceBasicAcquireRelease(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 2)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		r.Acquire(p, 2)
		trace = append(trace, fmt.Sprintf("a@%d", p.Now()))
		p.Sleep(10)
		r.Release(2)
	})
	e.Spawn("b", func(p *Proc) {
		r.Acquire(p, 1)
		trace = append(trace, fmt.Sprintf("b@%d", p.Now()))
		r.Release(1)
	})
	mustRun(t, e)
	want := []string{"a@0", "b@10"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
	if r.Avail() != 2 || r.InUse() != 0 {
		t.Errorf("final avail=%d inuse=%d", r.Avail(), r.InUse())
	}
	if r.Waits() != 1 {
		t.Errorf("Waits = %d, want 1", r.Waits())
	}
	if r.WaitedTime() != 10 {
		t.Errorf("WaitedTime = %v, want 10", r.WaitedTime())
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	// A small request queued behind a large one must not barge ahead.
	e := New()
	r := NewResource(e, "r", 4)
	var order []string
	e.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(10)
		r.Release(4)
	})
	e.GoAt(1, "big", func(p *Proc) {
		r.Acquire(p, 3)
		order = append(order, "big")
		r.Release(3)
	})
	e.GoAt(2, "small", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	mustRun(t, e)
	want := []string{"big", "small"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed on full pool")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded on empty pool")
	}
	r.Release(1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) failed after release")
	}
}

func TestResourceTryAcquireRespectsWaiters(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 2)
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10)
		r.Release(2)
	})
	e.GoAt(1, "waiter", func(p *Proc) {
		r.Acquire(p, 2)
		r.Release(2)
	})
	e.GoAt(12, "checker", func(p *Proc) {
		// At t=12 the waiter has come and gone; pool free again.
		if !r.TryAcquire(1) {
			t.Error("TryAcquire failed on free pool")
		}
		r.Release(1)
	})
	e.GoAt(5, "barger", func(p *Proc) {
		// At t=5, pool is exhausted AND a waiter is queued: must refuse.
		if r.TryAcquire(0) {
			t.Error("TryAcquire barged past queued waiter")
		}
	})
	mustRun(t, e)
}

func TestResourceMinAvailTracksExhaustion(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 3)
	e.Spawn("p", func(p *Proc) {
		r.Acquire(p, 3)
		r.Release(3)
	})
	mustRun(t, e)
	if r.MinAvail() != 0 {
		t.Errorf("MinAvail = %d, want 0", r.MinAvail())
	}
}

func TestResourceAcquireOverCapacityPanics(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	panicked := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Acquire(p, 2)
	})
	_ = e.Run()
	if !panicked {
		t.Error("Acquire beyond capacity did not panic")
	}
}

func TestResourceReleaseOverflowPanics(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release overflow did not panic")
		}
	}()
	r.Release(1)
}

func TestResourceDoubleReleaseWakesOnlyOnce(t *testing.T) {
	// Two rapid releases must not corrupt the waiter queue via double wake.
	e := New()
	r := NewResource(e, "r", 2)
	done := 0
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(5)
		r.Release(1)
		r.Release(1) // second release before waiter runs
	})
	e.GoAt(1, "waiter", func(p *Proc) {
		r.Acquire(p, 2)
		done++
		r.Release(2)
	})
	mustRun(t, e)
	if done != 1 {
		t.Errorf("waiter completed %d times, want 1", done)
	}
}

func TestEventBroadcast(t *testing.T) {
	e := New()
	ev := NewEvent(e, "go")
	var woke []string
	for _, n := range []string{"a", "b"} {
		n := n
		e.Spawn(n, func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, fmt.Sprintf("%s@%d", n, p.Now()))
		})
	}
	e.GoAt(9, "firer", func(p *Proc) { ev.Fire() })
	mustRun(t, e)
	sort.Strings(woke)
	want := []string{"a@9", "b@9"}
	if !reflect.DeepEqual(woke, want) {
		t.Errorf("woke = %v, want %v", woke, want)
	}
	if !ev.Fired() {
		t.Error("Fired() = false after Fire")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	e := New()
	ev := NewEvent(e, "go")
	ev.Fire()
	ev.Fire() // double fire is a no-op
	var at Time = -1
	e.GoAt(5, "late", func(p *Proc) {
		ev.Wait(p)
		at = p.Now()
	})
	mustRun(t, e)
	if at != 5 {
		t.Errorf("late waiter resumed at %v, want 5", at)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New()
	wg := NewWaitGroup(e, "wg")
	wg.Add(3)
	var doneAt Time = -1
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.GoAt(Time(i*10), fmt.Sprintf("worker%d", i), func(p *Proc) { wg.Done() })
	}
	mustRun(t, e)
	if doneAt != 30 {
		t.Errorf("waiter resumed at %v, want 30", doneAt)
	}
	if wg.Count() != 0 {
		t.Errorf("Count = %d, want 0", wg.Count())
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := New()
	wg := NewWaitGroup(e, "wg")
	defer func() {
		if recover() == nil {
			t.Error("negative WaitGroup did not panic")
		}
	}()
	wg.Done()
}

func TestWaitGroupZeroCountWaitReturns(t *testing.T) {
	e := New()
	wg := NewWaitGroup(e, "wg")
	ran := false
	e.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	mustRun(t, e)
	if !ran {
		t.Error("Wait on zero-count WaitGroup blocked")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	a := NewResource(e, "A", 1)
	b := NewResource(e, "B", 1)
	e.Spawn("p1", func(p *Proc) {
		a.Acquire(p, 1)
		p.Sleep(1)
		b.Acquire(p, 1) // deadlock: p2 holds B
	})
	e.Spawn("p2", func(p *Proc) {
		b.Acquire(p, 1)
		p.Sleep(1)
		a.Acquire(p, 1) // deadlock: p1 holds A
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("Blocked = %v, want 2 entries", dl.Blocked)
	}
	if dl.At != 1 {
		t.Errorf("deadlock time = %v, want 1", dl.At)
	}
}

func TestDaemonDoesNotCauseDeadlock(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "requests")
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p) // blocks forever once clients stop
		}
	})
	e.Spawn("client", func(p *Proc) {
		q.Put(1)
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestRunUntilTimeLimit(t *testing.T) {
	e := New()
	ticks := 0
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
		}
	})
	err := e.RunUntil(95)
	var tl *TimeLimitError
	if !errors.As(err, &tl) {
		t.Fatalf("RunUntil = %v, want TimeLimitError", err)
	}
	if ticks != 9 {
		t.Errorf("ticks = %d, want 9", ticks)
	}
	if e.Now() != 95 {
		t.Errorf("Now = %v, want 95", e.Now())
	}
}

func TestRunUntilCompletesEarly(t *testing.T) {
	e := New()
	e.Spawn("quick", func(p *Proc) { p.Sleep(5) })
	if err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil = %v, want nil", err)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

func TestBlockedProcsReport(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "never")
	e.Spawn("stuck", func(p *Proc) { q.Get(p) })
	_ = e.Run()
	bl := e.BlockedProcs()
	if len(bl) != 1 || bl[0] != "stuck: queue never" {
		t.Errorf("BlockedProcs = %v", bl)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		e.Seed(42)
		q := NewQueue[int](e, "q")
		r := NewResource(e, "r", 3)
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					d := Time(e.Rand().Intn(20))
					p.Sleep(d)
					r.Acquire(p, 1+i%3)
					p.Sleep(Time(e.Rand().Intn(5)))
					r.Release(1 + i%3)
					q.Put(i*100 + k)
					trace = append(trace, fmt.Sprintf("%d@%d", i*100+k, p.Now()))
				}
			})
		}
		e.SpawnDaemon("drain", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	e := New()
	e.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		_ = e.Run()
	})
	mustRun(t, e)
}

// Property: for random sleep schedules, processes always observe
// monotonically non-decreasing time and wake exactly at their target times.
func TestPropertySleepExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		n := 2 + rng.Intn(6)
		ok := true
		for i := 0; i < n; i++ {
			delays := make([]Time, 1+rng.Intn(8))
			for j := range delays {
				delays[j] = Time(rng.Intn(1000))
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				expect := Time(0)
				for _, d := range delays {
					before := p.Now()
					p.Sleep(d)
					expect = before + d
					if p.Now() != expect {
						ok = false
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a resource never exceeds capacity and never goes negative under
// random concurrent acquire/release workloads.
func TestPropertyResourceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		capN := 1 + rng.Intn(8)
		r := NewResource(e, "r", capN)
		violated := false
		for i := 0; i < 6; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 10; k++ {
					n := 1 + rng.Intn(capN)
					r.Acquire(p, n)
					if r.Avail() < 0 || r.InUse() > r.Cap() {
						violated = true
					}
					p.Sleep(Time(rng.Intn(7)))
					r.Release(n)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return !violated && r.Avail() == capN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestShutdownReleasesParkedProcs: on a 2-shard engine, processes parked on
// both lanes (last resumed on worker goroutines) are unwound from the
// coordinator, never-started GoAt processes end without running their
// bodies, and every goroutine — coroutines and lane workers — is released.
func TestShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	const owners = 4
	e := New()
	e.ConfigureShards(2, owners, func(o int) int { return o * 2 / owners }, 10)
	deferRan, lateRan := 0, 0
	var late []*Proc
	for i := 0; i < 20; i++ {
		o := i % owners
		q := NewQueue[int](e, fmt.Sprintf("never%d", i))
		e.SpawnDaemonOn(o, fmt.Sprintf("d%d", i), func(p *Proc) {
			defer func() { deferRan++ }()
			q.Get(p)
		})
		late = append(late, e.GoAtOn(o, 1000, fmt.Sprintf("late%d", i), func(p *Proc) { lateRan++ }))
	}
	var tl *TimeLimitError
	if err := e.RunUntil(500); !errors.As(err, &tl) {
		t.Fatalf("RunUntil = %v, want a time-limit error", err)
	}
	e.Shutdown()
	if deferRan != 20 {
		t.Errorf("deferred cleanups ran %d times, want 20", deferRan)
	}
	if lateRan != 0 {
		t.Errorf("%d never-started bodies ran", lateRan)
	}
	for _, p := range late {
		if p.state != procDone {
			t.Errorf("%s: state %d after Shutdown, want procDone", p.Name(), p.state)
		}
	}
	waitGoroutines(t, before)
	e.Shutdown() // second call is a no-op
	if deferRan != 20 || lateRan != 0 {
		t.Errorf("second Shutdown reran bodies: deferRan=%d lateRan=%d", deferRan, lateRan)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails t unless the goroutine count returns to at most want
// (lane workers exit asynchronously once Shutdown closes their channels).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", want, got)
	}
}

// TestProcessPanicReachesRunCaller: a process body's panic is re-raised from
// Run on the caller's goroutine — directly in serial mode, and after every
// lane has reported when the process ran on a shard worker.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New()
			e.ConfigureShards(shards, 2, func(o int) int { return o * shards / 2 }, 10)
			q := NewQueue[int](e, "never")
			e.SpawnDaemonOn(0, "parked", func(p *Proc) { q.Get(p) })
			e.SpawnOn(1, "faulty", func(p *Proc) {
				p.Sleep(5)
				panic("process bug")
			})
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = e.Run()
				return nil
			}()
			if got != "process bug" {
				t.Fatalf("recovered %v, want the process's panic value", got)
			}
			e.Shutdown()
			waitGoroutines(t, before)
		})
	}
}

func TestShutdownKillsNeverStartedProcs(t *testing.T) {
	e := New()
	ran := false
	e.GoAt(100, "late", func(p *Proc) { ran = true })
	if err := e.RunUntil(50); err == nil {
		t.Fatal("expected time-limit error")
	}
	e.Shutdown()
	if ran {
		t.Error("killed proc body ran")
	}
}

func TestShutdownWhileRunningPanics(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown during run did not panic")
			}
		}()
		e.Shutdown()
	})
	_ = e.Run()
}

func TestShutdownIdempotentAndRunnableAfter(t *testing.T) {
	e := New()
	e.SpawnDaemon("d", func(p *Proc) { NewQueue[int](e, "q").Get(p) })
	_ = e.Run()
	e.Shutdown()
	e.Shutdown() // second call is a no-op
}
