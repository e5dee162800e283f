// Command contention regenerates Figures 6 and 7 of the paper: per-process
// time of vectored put (Fig 6) or atomic fetch-&-add (Fig 7) operations to
// rank 0, under no contention, 11% contention (every 9th process hammers
// rank 0) and 20% contention (every 5th).
//
// The paper's full-size setup is 256 nodes x 4 processes (1024 procs); the
// default here samples every 8th rank to keep the discrete-event run
// tractable while preserving per-point behaviour.
//
// Runs execute through the internal/sweep worker pool: -j N runs the
// (topology x level) grid on N workers and -cache DIR reuses previously
// computed points. Every simulation is an independent deterministic engine,
// so the printed tables are byte-identical at any -j. cmd/sweep generalizes
// this binary to arbitrary grids (message sizes, fault specs, seeds) and
// writes the BENCH_sweep.json perf record; see docs/SWEEP.md.
//
// With -metrics, every run additionally prints its observability snapshot
// (CHT busy fractions, credit-wait histogram, hot-node NIC utilization —
// see docs/OBSERVABILITY.md). With -trace FILE, all runs are written into
// one Chrome-trace JSON file (open in Perfetto or chrome://tracing), one
// trace process per run; -trace-sched adds scheduler run-slices. Tracing
// appends spans run-by-run, so -trace forces serial execution.
//
// With -faults SPEC, every run executes under the given fault schedule
// (grammar in docs/FAULTS.md, e.g. "link:3-7@t=1ms,cht:12@t=2ms"): the
// runtime enables request timeouts/retries and a deadlock watchdog, and the
// retry/reroute counters appear in the -metrics snapshot. -heal additionally
// arms heartbeat membership and online topology self-healing, which matters
// only when the schedule contains node: crash-stop faults — without them the
// flag is a documented no-op and the output is bit-identical.
//
// With -overload, the runtime arms the overload-protection layer (ECN-style
// congestion marking, AIMD injection pacing, the graceful-degradation
// ladder — see docs/OVERLOAD.md); the pacing_* and shed_* counters appear in
// the -metrics snapshot.
//
// Usage:
//
//	contention -op vput|fadd [-level none|11|20|all] [-nodes 256] [-ppn 4]
//	           [-iters 20] [-sample 8] [-topos fcg,mfcg,hyperx:8x8x4,...]
//	           [-j N] [-cache DIR] [-csv] [-metrics]
//	           [-trace FILE [-trace-sched]] [-faults SPEC] [-heal]
//	           [-window N] [-agg] [-adaptive] [-overload]
package main

import (
	"flag"
	"fmt"
	"os"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/figures"
	"armcivt/internal/obs"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

func main() {
	op := flag.String("op", "vput", "operation: vput (Fig 6) or fadd (Fig 7)")
	level := flag.String("level", "all", "contention: none, 11, 20, or all")
	nodes := flag.Int("nodes", 256, "number of nodes")
	ppn := flag.Int("ppn", 4, "processes per node")
	iters := flag.Int("iters", 20, "iterations per measured process")
	sample := flag.Int("sample", 8, "measure every k-th rank")
	topos := flag.String("topos", "fcg,mfcg,cfcg,hypercube", "topology specs to run: bare kinds (fcg,...,hyperx,dragonfly) or parameterized (hyperx:8x8x4, dragonfly:g=9,a=4,h=2)")
	jobs := flag.Int("j", 1, "worker-pool size for the (topology x level) grid")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory ('' disables)")
	csv := flag.Bool("csv", false, "emit CSV")
	metrics := flag.Bool("metrics", false, "print each run's observability metrics table")
	traceFile := flag.String("trace", "", "write a combined Chrome-trace JSON file (forces -j 1)")
	traceSched := flag.Bool("trace-sched", false, "include scheduler run-slices in the trace (verbose)")
	faultSpec := flag.String("faults", "", "fault schedule, e.g. link:3-7@t=1ms,cht:12@t=2ms (see docs/FAULTS.md)")
	window := flag.Int("window", 0, "nonblocking pipeline window per process (0 = blocking, the paper's shape)")
	agg := flag.Bool("agg", false, "enable small-op aggregation in the runtime")
	adaptive := flag.Bool("adaptive", false, "enable adaptive per-edge credit management")
	heal := flag.Bool("heal", false, "enable heartbeat membership and topology self-healing (no-op without node: faults)")
	overload := flag.Bool("overload", false, "enable the overload-protection layer: congestion marking, AIMD injection pacing and the degradation ladder (see docs/OVERLOAD.md)")
	shards := flag.Int("shards", 1, "conservative-parallel kernel shards per run (1 = serial; results are bit-identical, see docs/PARALLELISM.md)")
	flag.Parse()

	if *faultSpec != "" {
		if _, err := faults.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	specs, err := core.ParseSpecList(*topos)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var figName string
	switch *op {
	case "vput":
		figName = "Figure 6: vectored put"
	case "fadd":
		figName = "Figure 7: fetch-&-add"
	default:
		fmt.Fprintln(os.Stderr, "bad -op (want vput or fadd)")
		os.Exit(2)
	}

	var order []string
	switch *level {
	case "all":
		order = []string{"none", "11", "20"}
	case "none", "11", "20":
		order = []string{*level}
	default:
		fmt.Fprintln(os.Stderr, "bad -level (want none, 11, 20, or all)")
		os.Exit(2)
	}

	// Expand the (level x topology) grid into sweep points, in print order.
	// Topologies that cannot be built at this node count are skipped with a
	// notice, exactly as the per-figure loop did.
	grid := sweep.Grid{
		Experiment:  sweep.ExpContention,
		Op:          *op,
		Levels:      order,
		Nodes:       []int{*nodes},
		PPN:         *ppn,
		Iters:       *iters,
		SampleEvery: *sample,
		Faults:      []string{faultsOrNone(*faultSpec)},
		Metrics:     *metrics,
		Window:      *window,
		Aggs:        []string{onOff(*agg)},
		Adapts:      []string{onOff(*adaptive)},
		Heals:       []string{onOff(*heal)},
		Overloads:   []string{onOff(*overload)},
	}
	for _, spec := range specs {
		if _, err := spec.Build(*nodes); err != nil {
			fmt.Fprintf(os.Stderr, "skipping %v: %v\n", spec, err)
			continue
		}
		grid.Topos = append(grid.Topos, spec.String())
	}
	points, err := grid.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
	}
	runner := &sweep.Runner{Workers: *jobs, CacheDir: *cacheDir, Trace: tracer, Shards: *shards}
	if tracer != nil && *traceSched {
		// The generic executor doesn't know about scheduler slices; run
		// those through a thin wrapper that switches the flag on.
		runner.Exec = func(p sweep.Point, opts sweep.ExecOptions) sweep.Result {
			return executeWithSched(p, opts)
		}
	}
	results, _ := runner.Run(points)

	for _, g := range sweep.Groups(results) {
		pct := sweep.LevelName(g.Point.Level)
		tbl := stats.SeriesTable(
			fmt.Sprintf("%s to rank 0, %s — avg us/op per process rank", figName, pct),
			"rank", g.Series)
		if *csv {
			tbl.WriteCSV(os.Stdout)
		} else {
			tbl.Write(os.Stdout)
		}
		fmt.Println()
		sum := &stats.Table{
			Title:  fmt.Sprintf("summary (%s)", pct),
			Header: []string{"topology", "mean us", "p50 us", "p99 us", "max us"},
		}
		for _, s := range g.Series {
			sm := stats.Summarize(s.Y)
			sum.AddRow(s.Label, sm.Mean, sm.P50, sm.P99, sm.Max)
		}
		sum.Write(os.Stdout)
		fmt.Println()
		for _, snap := range g.Snapshots {
			if *csv {
				snap.WriteCSV(os.Stdout)
			} else {
				snap.Write(os.Stdout)
			}
			fmt.Println()
		}
	}
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (%d dropped); open in https://ui.perfetto.dev\n",
			tracer.Len(), *traceFile, tracer.Dropped())
	}
}

func faultsOrNone(spec string) string {
	if spec == "" {
		return "none"
	}
	return spec
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// executeWithSched mirrors sweep.Execute for the -trace-sched path: it
// rebuilds the contention config with scheduler-slice tracing enabled.
func executeWithSched(p sweep.Point, opts sweep.ExecOptions) sweep.Result {
	spec, err := core.ParseSpec(p.Topo)
	if err != nil {
		return sweep.Result{Point: p, Label: p.Label(), Err: err.Error()}
	}
	cfg := figures.ContentionConfig{
		Kind: spec.Kind, Topo: spec, Nodes: p.Nodes, PPN: p.PPN, Iters: p.Iters,
		ContenderEvery: p.ContenderEvery, VecSegs: p.VecSegs,
		VecSegLen: p.MsgSize, SampleEvery: p.SampleEvery,
		StreamLimit: p.StreamLimit, Seed: p.EffectiveSeed(),
		Window: p.Window, Aggregation: p.Agg == "on", AdaptiveCredits: p.Adapt == "on",
		Heal: p.Heal == "on", Overload: p.Overload == "on",
		Trace: opts.Trace, TracePID: p.Index, TraceSched: true,
	}
	if p.Op == "fadd" {
		cfg.Op = figures.OpFetchAdd
	}
	if p.Faults != "" {
		fspec, err := faults.ParseSpec(p.Faults)
		if err != nil {
			return sweep.Result{Point: p, Label: p.Label(), Err: err.Error()}
		}
		cfg.Faults = fspec
	}
	res := sweep.Result{Point: p, Label: p.Label()}
	s, err := figures.Contention(cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.X, res.Y = s.X, s.Y
	return res
}
