package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// span is one host-time interval recorded by the benchmark around a call
// into a layer. Parent is the index of the enclosing span, or -1.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // since the span log's origin
}

// spanLog keeps spans in memory; they are written out when the benchmark
// ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.origin)})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id]
	s.End = time.Since(l.origin)
	return s.End - s.Start
}

// tracing is the instrumentation of a traced run: scheduler switches by
// process class, the obs registry and the CPU profile.
type tracing struct {
	switches map[string]uint64
	reg      *obs.Registry
	prof     bytes.Buffer
}

func (t *tracing) Trace(rec sim.TraceRecord) {
	if rec.Kind != sim.TraceResume {
		return
	}
	class := "other"
	switch {
	case strings.HasPrefix(rec.Proc, "rank"):
		class = "rank"
	case strings.HasPrefix(rec.Proc, "cht"):
		class = "cht"
	}
	t.switches[class]++
}

// result is what one run of a workload measured.
type result struct {
	setup, run, teardown time.Duration
	build, armciNew      time.Duration // core.Spec.Build and armci.New, inside setup
	liveBytes            uint64        // 0 in traced runs, which skip the forced GC
	mallocs              uint64        // heap allocations during rt.Run
	allocBytes           uint64        // bytes allocated over setup + run + teardown
	gcCycles             uint32

	attempted, completed, failed int
	samples                      []float64 // virtual op latencies, us, sorted
	fingerprint                  uint64

	armci   armci.Stats
	fabric  fabric.Stats
	resumes uint64
	edges   int
	crashes int

	// Traced runs only.
	switches   map[string]uint64
	chtBusyHot float64
	cpu        map[string]int64 // CPU profile samples by layer
}

func (r *result) wall() time.Duration { return r.setup + r.run + r.teardown }

// virtKey is the virtual-time outcome of a run; every run of a workload at
// one seed must reproduce it exactly.
func (r *result) virtKey() string {
	return fmt.Sprintf("fp=%016x attempted=%d completed=%d failed=%d p50=%g p99=%g n=%d",
		r.fingerprint, r.attempted, r.completed, r.failed, pct(r.samples, 50), pct(r.samples, 99), len(r.samples))
}

// timed runs fn inside a span named name and returns its duration.
func (l *spanLog) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := l.begin(name, parent)
	err := fn()
	return l.end(id), err
}

// setUp builds a runtime for w on in through each layer's entry points —
// core.ParseSpec and Spec.Build, sim.New, armci.DefaultConfig,
// faults.NewInjector, armci.New (which builds the fabric) and rt.Alloc —
// timing each in a span under parent. It fills res's setup figures.
func setUp(w *Workload, in *Inputs, inst instance, log *spanLog, parent int, tr *tracing, res *result) (rt *armci.Runtime, topo core.Topology, err error) {
	id := log.begin("setup", parent)
	defer func() { res.setup = log.end(id) }()
	var spec core.Spec
	var eng *sim.Engine
	var cfg armci.Config
	if _, err = log.timed("core.ParseSpec", id, func() (err error) { spec, err = core.ParseSpec(w.Topo); return }); err != nil {
		return nil, nil, err
	}
	if res.build, err = log.timed("core.Spec.Build", id, func() (err error) { topo, err = spec.Build(w.Nodes); return }); err != nil {
		return nil, nil, err
	}
	log.timed("sim.New", id, func() error { eng = sim.New(); eng.Seed(in.Seed); return nil })
	log.timed("armci.DefaultConfig", id, func() error { cfg = armci.DefaultConfig(w.Nodes, w.PPN); return nil })
	cfg.Topology = topo
	cfg.Shards = 1
	if in.Faults != nil {
		log.timed("faults.NewInjector", id, func() error {
			cfg.Faults = faults.NewInjector(eng, w.Nodes, &faults.Spec{Faults: in.Faults})
			return nil
		})
		cfg.Heal.Enabled = true
		// Retry constants scaled to the crash horizon: the last retries
		// land past worst-case detection, so healing finds a route before
		// retries run out.
		cfg.RequestTimeout = 200 * sim.Microsecond
		cfg.MaxRetries = 4
		cfg.CreditTimeout = 400 * sim.Microsecond
		// A wedged protocol becomes a Run error, not a hang.
		sim.NewWatchdog(eng, 0, 0).Start()
	}
	if tr != nil {
		cfg.Metrics = tr.reg
		eng.SetTracer(tr)
	}
	if res.armciNew, err = log.timed("armci.New", id, func() (err error) { rt, err = armci.New(eng, cfg); return }); err != nil {
		return nil, nil, err
	}
	log.timed("rt.Alloc", id, func() error { inst.setup(rt); return nil })
	return rt, topo, nil
}

// setUpOnly times one setup of w on in, without running it.
func setUpOnly(w *Workload, in *Inputs, log *spanLog) (time.Duration, error) {
	inst := newInstance(w, in)
	runtime.GC()
	res := &result{}
	root := log.begin("setup-only "+w.Name, -1)
	rt, _, err := setUp(w, in, inst, log, root, nil, res)
	log.end(root)
	if err != nil {
		return 0, err
	}
	rt.Shutdown()
	return res.setup, nil
}

// runOnce performs one complete run of w on in: setUp, rt.Run, the layer
// counters, rt.Shutdown and the outcome check, each timed on its own. tr,
// when non-nil, traces the run. tamper, when non-nil, is applied to the
// runtime before the check (tests use it to corrupt an outcome).
func runOnce(w *Workload, in *Inputs, log *spanLog, tr *tracing, tamper func(*armci.Runtime)) (res *result, err error) {
	inst := newInstance(w, in)
	res = &result{}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		if err := pprof.StartCPUProfile(&tr.prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // a no-op once stopped below
	}
	root := log.begin("workload "+w.Name, -1)
	defer log.end(root)
	rt, topo, err := setUp(w, in, inst, log, root, tr, res)
	if err != nil {
		return nil, err
	}

	// Run.
	runtime.ReadMemStats(&m1)
	res.run, err = log.timed("rt.Run", root, func() error { return rt.Run(inst.body) })
	runtime.ReadMemStats(&m2)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	res.mallocs = m2.Mallocs - m1.Mallocs
	if tr == nil {
		var live runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&live)
		res.liveBytes = live.HeapInuse + live.StackInuse
	}

	// Layer counters and the outcome.
	log.timed("rt.Stats", root, func() error { res.armci = rt.Stats(); return nil })
	log.timed("fabric.Network.Stats", root, func() error { res.fabric = rt.Network().Stats(); return nil })
	log.timed("sim.Engine.Resumes", root, func() error { res.resumes = rt.Engine().Resumes(); return nil })

	// Teardown. The outcome is checked after it, so the check's own
	// allocations stay out of the runtime's figures.
	res.teardown, _ = log.timed("rt.Shutdown", root, func() error { rt.Shutdown(); return nil })
	if tr != nil {
		pprof.StopCPUProfile()
	}
	var m3 runtime.MemStats
	runtime.ReadMemStats(&m3)
	res.allocBytes = m3.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m3.NumGC - m0.NumGC

	if tamper != nil {
		tamper(rt)
	}
	if _, err = log.timed("check", root, func() error { return inst.check(rt) }); err != nil {
		return nil, fmt.Errorf("%s seed %d: correctness check failed: %w", w.Name, in.Seed, err)
	}
	res.fingerprint = fingerprint(inst, rt)
	if tr != nil {
		rt.FillMetrics()
		res.chtBusyHot = tr.reg.Gauge("armci_cht_busy_frac", obs.L("class", "hot")).Value()
	}

	led := inst.ledger()
	for rank := range led.issued {
		res.attempted += led.issued[rank]
		res.completed += led.completed[rank]
		res.failed += led.failed[rank]
		for _, t := range led.lat[rank] {
			res.samples = append(res.samples, t.Micros())
		}
	}
	sort.Float64s(res.samples)
	for node := 0; node < topo.Nodes(); node++ {
		res.edges += topo.Degree(node)
	}
	res.crashes = len(in.Faults)
	return res, nil
}

// fingerprint folds the run's outcome: every rank's ledger, its latencies
// in issue order, the outcome memory and the final virtual clock.
func fingerprint(inst instance, rt *armci.Runtime) uint64 {
	h := fnv.New64a()
	led := inst.ledger()
	for rank := range led.issued {
		fmt.Fprintf(h, "%d:%d/%d/%d", rank, led.issued[rank], led.completed[rank], led.failed[rank])
		for _, t := range led.lat[rank] {
			fmt.Fprintf(h, ",%d", int64(t))
		}
		h.Write([]byte{';'})
	}
	inst.digest(rt, h)
	fmt.Fprintf(h, "@%d", int64(rt.Engine().Now()))
	return h.Sum64()
}

// pct is the nearest-rank p-th percentile of sorted values.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.999999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of values (which it sorts).
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}
