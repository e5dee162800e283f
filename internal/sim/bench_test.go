package sim

import "testing"

// BenchmarkEventQueue measures raw schedule/dispatch throughput of the event
// heap: a self-rescheduling chain keeps a fixed population of pending events
// alive, the access pattern the armci/fabric layers generate. The interesting
// numbers are ns/op and allocs/op: the hand-rolled heap must not allocate per
// event (container/heap's interface boxing did).
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{16, 256, 4096} {
		b.Run(benchName(pending), func(b *testing.B) {
			e := New()
			fired := 0
			var reschedule func()
			reschedule = func() {
				fired++
				if fired < b.N {
					e.After(Time(fired%7+1), reschedule)
				}
			}
			for i := 0; i < pending; i++ {
				e.After(Time(i%13+1), reschedule)
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchName(pending int) string {
	switch pending {
	case 16:
		return "pending=16"
	case 256:
		return "pending=256"
	default:
		return "pending=4096"
	}
}

// BenchmarkProcessPingPong measures the full scheduling round-trip two
// processes alternating on a queue pay per message: park, event dispatch,
// resume.
func BenchmarkProcessPingPong(b *testing.B) {
	e := New()
	ping := NewQueue[int](e, "ping")
	pong := NewQueue[int](e, "pong")
	n := b.N
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnPark measures the fixed per-process cost a large run pays
// outside its steady state: spawn 65,536 processes, run each to its first
// park on a queue, then unwind them all with Shutdown. ns/proc is ns/op
// divided by the process count.
func BenchmarkSpawnPark(b *testing.B) {
	const procs = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		q := NewQueue[int](e, "never")
		for j := 0; j < procs; j++ {
			e.SpawnDaemon("p", func(p *Proc) { q.Get(p) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Shutdown()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs), "ns/proc")
}
