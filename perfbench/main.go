// Command perfbench is the simulator's benchmark. It runs one named
// workload through each layer's public entry points (core, sim, armci with
// its fabric, faults), checks the outcome of every run, and prints the
// end-to-end metrics (host time and virtual time) or, with -trace 1, the
// per-layer metrics of a traced run. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload hotspot-putv --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the metric table and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"armcivt/internal/obs"
)

// metric is one named measurement with its unit, the direction that is
// better, the layer it describes and how many values it summarizes.
type metric struct {
	Name, Unit, Better, Layer string
	Value                     float64
	N                         int
	Note                      string
}

// minRuns is the fewest runs of each kind a measurement takes, whatever
// its time budget.
const minRuns = 3

// measurement is every run one benchmark invocation made.
type measurement struct {
	plain, traced []*result
	setups        []float64 // seconds, of every untraced run and setup-only repetition
	log           *spanLog
	lastProfile   []byte
}

// measure runs w on in repeatedly for about budget host time. Traced
// measurements alternate untraced and traced runs, so the tracing overhead
// is measured against runs made under the same conditions. Every run must
// reproduce the first run's virtual-time outcome exactly.
func measure(w *Workload, in *Inputs, budget time.Duration, traced bool) (*measurement, error) {
	m := &measurement{log: newSpanLog()}
	start := time.Now()
	var want string
	var last time.Duration
	for i := 0; ; i++ {
		var tr *tracing
		if traced && i%2 == 1 {
			tr = &tracing{switches: map[string]uint64{}, reg: obs.NewRegistry()}
		}
		t0 := time.Now()
		res, err := runOnce(w, in, m.log, tr, nil)
		if err != nil {
			return nil, err
		}
		last = max(last, time.Since(t0))
		if key := res.virtKey(); i == 0 {
			want = key
		} else if key != want {
			return nil, fmt.Errorf("%s seed %d: run %d is not deterministic:\n  got  %s\n  want %s", w.Name, in.Seed, i, key, want)
		}
		if tr != nil {
			res.switches = tr.switches
			if res.cpu, err = cpuByLayer(tr.prof.Bytes()); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			m.lastProfile = tr.prof.Bytes()
			m.traced = append(m.traced, res)
		} else {
			m.plain = append(m.plain, res)
			m.setups = append(m.setups, res.setup.Seconds())
			// A setup of a few milliseconds is also repeated on its own,
			// for 1/20 of each run's time, so setup_s is a median over
			// many setups spread across the whole measurement.
			for t1, d := time.Now(), time.Since(t0)/20; !traced && time.Since(t1) < d; {
				s, err := setUpOnly(w, in, m.log)
				if err != nil {
					return nil, err
				}
				m.setups = append(m.setups, s.Seconds())
			}
		}
		enough := len(m.plain) >= minRuns && (!traced || len(m.traced) >= minRuns)
		if enough && time.Since(start)+last > budget {
			return m, nil
		}
	}
}

// medianOf is the median of f over runs.
func medianOf(runs []*result, f func(*result) float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = f(r)
	}
	return median(vs)
}

// endToEnd is the metrics a user of the simulator sees, from untraced runs.
func endToEnd(m *measurement) []metric {
	rs := m.plain
	n := len(rs)
	first := rs[0]
	return []metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Layer: "all", N: len(m.setups), Value: median(m.setups),
			Note: "topology build, engine, armci.New with fabric, injector and Alloc"},
		{Name: "wall_s", Unit: "s", Better: "lower", Layer: "all", N: n, Value: medianOf(rs, func(r *result) float64 { return r.wall().Seconds() }),
			Note: "setup + rt.Run + rt.Shutdown"},
		{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Layer: "all", N: n, Value: medianOf(rs, func(r *result) float64 { return float64(r.completed) / r.run.Seconds() }),
			Note: "completed ops per host second of rt.Run"},
		{Name: "live_mb", Unit: "MB", Better: "lower", Layer: "all", N: n, Value: medianOf(rs, func(r *result) float64 { return float64(r.liveBytes) / 1e6 }),
			Note: "HeapInuse+StackInuse after a forced GC at end of run"},
		{Name: "virt_op_us_p50", Unit: "us", Better: "lower", Layer: "virtual", N: len(first.samples), Value: pct(first.samples, 50),
			Note: "median virtual op latency, issue to completion"},
		{Name: "virt_op_us_p99", Unit: "us", Better: "lower", Layer: "virtual", N: len(first.samples), Value: pct(first.samples, 99),
			Note: "99th-percentile virtual op latency"},
		{Name: "failed_op_frac", Unit: "fraction", Better: "lower", Layer: "virtual", N: first.attempted, Value: float64(first.failed) / float64(first.attempted),
			Note: fmt.Sprintf("ops_attempted=%d ops_failed=%d", first.attempted, first.failed)},
	}
}

// perLayer is the per-layer metrics of a traced measurement. Counts come
// from any run (they repeat exactly); host times and allocation figures
// from the untraced runs; CPU shares, switches and the obs registry from
// the traced runs.
func perLayer(m *measurement) []metric {
	p, t := m.plain, m.traced
	r := p[0]
	ops := float64(r.attempted)
	share := func(layer string) float64 {
		return medianOf(t, func(r *result) float64 {
			var total int64
			for _, c := range r.cpu {
				total += c
			}
			return float64(r.cpu[layer]) / float64(max(total, 1))
		})
	}
	cpuN := 0
	for _, r := range t {
		for _, c := range r.cpu {
			cpuN += int(c)
		}
	}
	count := func(name, layer string, v float64) metric {
		return metric{Name: name, Unit: "count", Better: "lower", Layer: layer, Value: v, N: 1}
	}
	perOp := func(name, layer string, v float64) metric {
		return metric{Name: name, Unit: "count/op", Better: "lower", Layer: layer, Value: v / ops, N: int(ops)}
	}
	host := func(name, layer string, f func(*result) float64) metric {
		return metric{Name: name, Unit: "s", Better: "lower", Layer: layer, Value: medianOf(p, f), N: len(p)}
	}
	us := func(name, layer string, v float64) metric {
		return metric{Name: name, Unit: "us", Better: "lower", Layer: layer, Value: v, N: 1}
	}
	cpu := func(layer string) metric {
		return metric{Name: layer + ".cpu_share", Unit: "fraction", Better: "lower", Layer: layer, Value: share(layer), N: cpuN}
	}
	switches := func(class string) float64 {
		return medianOf(t, func(r *result) float64 { return float64(r.switches[class]) })
	}
	a, f := r.armci, r.fabric
	plainWall := medianOf(p, func(r *result) float64 { return r.wall().Seconds() })
	tracedWall := medianOf(t, func(r *result) float64 { return r.wall().Seconds() })
	return []metric{
		count("sim.resumes", "sim", float64(r.resumes)),
		perOp("sim.resumes_per_op", "sim", float64(r.resumes)),
		count("sim.switches.rank", "sim", switches("rank")),
		count("sim.switches.cht", "sim", switches("cht")),
		cpu("sim"),

		count("fabric.messages", "fabric", float64(f.Messages)),
		perOp("fabric.msgs_per_op", "fabric", float64(f.Messages)),
		count("fabric.node_drops", "fabric", float64(f.NodeDrops)),
		{Name: "fabric.bytes", Unit: "B", Better: "lower", Layer: "fabric", Value: float64(f.Bytes), N: 1},
		us("fabric.max_queue_wait_us", "fabric", f.MaxQueueWait.Micros()),
		cpu("fabric"),

		host("armci.new_s", "armci", func(r *result) float64 { return r.armciNew.Seconds() }),
		host("armci.shutdown_s", "armci", func(r *result) float64 { return r.teardown.Seconds() }),
		count("armci.requests", "armci", float64(a.Requests)),
		perOp("armci.forwards_per_op", "armci", float64(a.Forwards)),
		count("armci.credit_waits", "armci", float64(a.CreditWaits)),
		us("armci.credit_waited_us", "armci", a.CreditWaited.Micros()),
		count("armci.max_cht_backlog", "armci", float64(a.MaxCHTBacklog)),
		count("armci.retries", "armci", float64(a.Retries)),
		count("armci.timeouts", "armci", float64(a.Timeouts)),
		count("armci.heal_replays", "armci", float64(a.HealReplays)),
		count("armci.confirms", "armci", float64(a.Confirms)),
		us("armci.max_detect_latency_us", "armci", a.MaxDetectLatency.Micros()),
		{Name: "armci.cht_busy_frac.hot", Unit: "fraction", Better: "lower", Layer: "armci", N: len(t),
			Value: medianOf(t, func(r *result) float64 { return r.chtBusyHot })},
		cpu("armci"),

		host("core.build_s", "core", func(r *result) float64 { return r.build.Seconds() }),
		count("core.edges", "core", float64(r.edges)),

		count("faults.crashes", "faults", float64(r.crashes)),
		cpu("faults"),

		{Name: "goruntime.allocs_per_op", Unit: "count/op", Better: "lower", Layer: "goruntime", N: len(p),
			Value: medianOf(p, func(r *result) float64 { return float64(r.mallocs) / ops })},
		{Name: "goruntime.alloc_mb", Unit: "MB", Better: "lower", Layer: "goruntime", N: len(p),
			Value: medianOf(p, func(r *result) float64 { return float64(r.allocBytes) / 1e6 })},
		{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower", Layer: "goruntime", N: len(p),
			Value: medianOf(p, func(r *result) float64 { return float64(r.gcCycles) })},
		cpu("goruntime"),
		cpu("other"),

		{Name: "trace.wall_s", Unit: "s", Better: "lower", Layer: "trace", Value: tracedWall, N: len(t),
			Note: "wall_s of the traced runs"},
		{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Layer: "trace", Value: tracedWall/plainWall - 1, N: len(t),
			Note: fmt.Sprintf("traced over untraced wall_s; untraced %.4f s over %d runs", plainWall, len(p))},
	}
}

// commit is the source revision under test, passed in by run.py.
var commit = "unknown"

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory traced runs write spans and a CPU profile to")
	flag.StringVar(&commit, "commit", commit, "source revision, recorded in the output")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload NAME -seed N -seconds S -trace 0|1; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if err := bench(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// bench runs one measurement and prints its report; the last line is the
// JSON result. A correctness or determinism failure returns an error and
// prints no metric.
func bench(stdout io.Writer, w *Workload, seed int64, budget time.Duration, traced bool, out string) error {
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d topo=%s nodes=%d ppn=%d kernel=serial\n", w.Name, seed, w.Topo, w.Nodes, w.PPN)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	in, err := generate(w, seed)
	if err != nil {
		return err
	}
	m, err := measure(w, in, budget, traced)
	if err != nil {
		return err
	}
	first := m.plain[0]
	fmt.Fprintf(stdout, "# runs untraced=%d traced=%d budget_s=%g outcome %s\n", len(m.plain), len(m.traced), budget.Seconds(), first.virtKey())
	for _, rs := range [][]*result{m.plain, m.traced} {
		for _, r := range rs {
			fmt.Fprintf(stdout, "# run traced=%-5v setup_s=%.6f run_s=%.6f teardown_s=%.6f live_mb=%.3f gc_cycles=%d\n",
				r.cpu != nil, r.setup.Seconds(), r.run.Seconds(), r.teardown.Seconds(), float64(r.liveBytes)/1e6, r.gcCycles)
		}
	}
	metrics := endToEnd(m)
	if traced {
		metrics = perLayer(m)
		if err := writeTrace(stdout, m, filepath.Join(out, fmt.Sprintf("%s-seed%d", w.Name, seed))); err != nil {
			return err
		}
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(l, "VmHWM:") {
				fmt.Fprintf(stdout, "# peak_rss %s\n", strings.Join(strings.Fields(l)[1:], " "))
			}
		}
	}
	return report(stdout, metrics, first)
}

// report prints every metric by name with its unit and sample count, then
// the JSON result line. The JSON lists the metrics BENCHMARK.json names:
// all but failed_op_frac, whose value is zero on these workloads and which
// the JSON carries as "attempted" and "failed".
func report(stdout io.Writer, metrics []metric, first *result) error {
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %-9s n=%-6d better=%-6s layer=%s", m.Name, m.Value, m.Unit, m.N, m.Better, m.Layer)
		if m.Note != "" {
			fmt.Fprintf(stdout, "  (%s)", m.Note)
		}
		fmt.Fprintln(stdout)
		if m.Name != "failed_op_frac" {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": first.attempted,
		"failed":    first.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// writeTrace prints the span summary of a traced measurement and writes its
// spans (Chrome trace event format) and last CPU profile under prefix.
func writeTrace(stdout io.Writer, m *measurement, prefix string) error {
	type agg struct {
		durs []float64
		self []float64
	}
	byName := map[string]*agg{}
	var names []string
	child := make([]time.Duration, len(m.log.spans))
	for _, s := range m.log.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	events := make([]map[string]any, 0, len(m.log.spans))
	for i, s := range m.log.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.durs = append(a.durs, d.Seconds()*1e3)
		a.self = append(a.self, (d-child[i]).Seconds()*1e3)
		events = append(events, map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": 1,
			"ts": s.Start.Microseconds(), "dur": d.Microseconds(),
			"args": map[string]any{"id": i, "parent": s.Parent},
		})
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# spans (host ms; median over %d runs, traced and untraced)\n", len(m.plain)+len(m.traced))
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(stdout, "span %-24s count=%-4d median_ms=%-12.4f self_median_ms=%.4f\n", n, len(a.durs), median(a.durs), median(a.self))
	}
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return err
	}
	js, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".trace.json", js, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".cpu.pprof", m.lastProfile, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# wrote %s.trace.json and %s.cpu.pprof\n", prefix, prefix)
	return nil
}
