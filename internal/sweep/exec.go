package sweep

import (
	"errors"
	"fmt"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/figures"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

// Result is the outcome of one point. Series-valued experiments (contention)
// fill X/Y; scalar ones (memscale) fill Value. Err is set instead when the
// run failed or panicked — a failed point never aborts the sweep. WallNS is
// the wall-clock cost of the execution that produced the result, preserved
// across cache hits (Cached distinguishes the two).
type Result struct {
	Point    Point        `json:"point"`
	Label    string       `json:"label"`
	X        []float64    `json:"x,omitempty"`
	Y        []float64    `json:"y,omitempty"`
	Value    float64      `json:"value,omitempty"`
	Snapshot *stats.Table `json:"snapshot,omitempty"`
	WallNS   int64        `json:"wall_ns"`
	Err      string       `json:"err,omitempty"`
	Cached   bool         `json:"-"`
	// CacheCorrupt marks a point whose cache entry existed but was damaged
	// (truncated, torn, unparseable). The entry was evicted and the point
	// re-executed; the runner counts these as sweep_cache_corrupt_total.
	CacheCorrupt bool `json:"-"`
}

// Series converts a series-valued result into a labeled stats.Series.
func (r Result) Series() *stats.Series {
	return &stats.Series{Label: r.Label, X: r.X, Y: r.Y}
}

// ExecOptions carries per-sweep execution knobs into the executor. Nothing
// here may change a point's result — options deliberately do not participate
// in cache keys.
type ExecOptions struct {
	// Trace, when non-nil, receives every run's spans; the point index is
	// used as the trace process id. Tracing implies a serial pool (the
	// tracer is not goroutine-safe), which Runner.Run enforces.
	Trace *obs.Tracer
	// Shards is the simulation kernel's conservative-parallel shard count
	// for every executed point (<= 1 serial). Results are bit-identical for
	// every value — the sharded-kernel determinism contract
	// (docs/PARALLELISM.md) — which is why cached results stay valid across
	// shard counts.
	Shards int
}

// failErr renders an execution error for Result.Err, expanding watchdog
// errors into their full stall report.
func failErr(err error) string {
	var werr *sim.WatchdogError
	if errors.As(err, &werr) {
		return werr.Report.String()
	}
	return err.Error()
}

// Execute runs one point to completion and returns its result. It is a pure
// function of the point (plus opts): the same point always produces the same
// X/Y/Value, which is what makes results cacheable and worker counts
// invisible. Failures are reported in Result.Err, not as an error, so a
// sweep records them and moves on.
func Execute(p Point, opts ExecOptions) Result {
	res := Result{Point: p, Label: p.Label()}
	spec, err := core.ParseSpec(p.Topo)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	switch p.Experiment {
	case ExpChaos:
		cc := figures.ChaosConfig{
			Kind:       spec.Kind,
			Topo:       spec,
			Nodes:      p.Nodes,
			PPN:        p.PPN,
			OpsPerRank: p.Iters,
			Crashes:    p.Crashes,
			Seed:       p.EffectiveSeed(),
			Heal:       p.Heal == "on",
		}
		if opts.Trace != nil {
			cc.Trace = opts.Trace
			cc.TracePID = p.Index
		}
		var reg *obs.Registry
		if p.Metrics {
			reg = obs.NewRegistry()
			cc.Metrics = reg
		}
		cres, err := figures.Chaos(cc)
		if err != nil {
			res.Err = failErr(err)
			return res
		}
		// The scalar of a chaos point is its failed-operation count: zero
		// (barring partitions) with healing on, the lost-path count with it
		// off — the pair the merged table compares.
		res.Value = float64(cres.Failed)
		if reg != nil {
			res.Snapshot = reg.Snapshot(fmt.Sprintf("metrics: chaos %s, %d crashes, heal %s", p.Topo, p.Crashes, onOff(p.Heal)))
		}
	case ExpOverload:
		oc := figures.OverloadConfig{
			Kind:       spec.Kind,
			Topo:       spec,
			Nodes:      p.Nodes,
			PPN:        p.PPN,
			OpsPerRank: p.Iters,
			Storms:     p.Storms,
			Tenants:    p.Tenants,
			Seed:       p.EffectiveSeed(),
			Protect:    p.Overload == "on",
			Shards:     opts.Shards,
		}
		if opts.Trace != nil {
			oc.Trace = opts.Trace
			oc.TracePID = p.Index
		}
		var reg *obs.Registry
		if p.Metrics {
			reg = obs.NewRegistry()
			oc.Metrics = reg
		}
		ores, err := figures.Overload(oc)
		if err != nil {
			res.Err = failErr(err)
			return res
		}
		// The scalar of an overload point is its goodput (completed ops per
		// virtual millisecond): the protected/unprotected pair at each storm
		// intensity is the collapse comparison the merged table shows.
		res.Value = ores.Goodput()
		if reg != nil {
			res.Snapshot = reg.Snapshot(fmt.Sprintf("metrics: overload %s, %d storms, %d tenants, protection %s",
				p.Topo, p.Storms, p.Tenants, onOff(p.Overload)))
		}
	case ExpMemscale:
		v, err := figures.Fig5PointSpec(p.Procs, p.PPN, spec)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Value = v
	case ExpContention:
		cfg := figures.ContentionConfig{
			Kind:            spec.Kind,
			Topo:            spec,
			Nodes:           p.Nodes,
			PPN:             p.PPN,
			Iters:           p.Iters,
			ContenderEvery:  p.ContenderEvery,
			VecSegs:         p.VecSegs,
			VecSegLen:       p.MsgSize,
			SampleEvery:     p.SampleEvery,
			StreamLimit:     p.StreamLimit,
			Seed:            p.EffectiveSeed(),
			Window:          p.Window,
			Aggregation:     p.Agg == "on",
			AdaptiveCredits: p.Adapt == "on",
			Heal:            p.Heal == "on",
			Overload:        p.Overload == "on",
			Shards:          opts.Shards,
		}
		if p.Op == "fadd" {
			cfg.Op = figures.OpFetchAdd
		}
		if p.Faults != "" {
			fspec, err := faults.ParseSpec(p.Faults)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			cfg.Faults = fspec
		}
		if opts.Trace != nil {
			cfg.Trace = opts.Trace
			cfg.TracePID = p.Index
		}
		var reg *obs.Registry
		if p.Metrics {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		s, err := figures.Contention(cfg)
		if err != nil {
			res.Err = failErr(err)
			return res
		}
		res.X, res.Y = s.X, s.Y
		if reg != nil {
			res.Snapshot = reg.Snapshot(fmt.Sprintf("metrics: %s, %s", p.Topo, LevelName(p.Level)))
		}
	default:
		res.Err = fmt.Sprintf("sweep: unknown experiment %q", p.Experiment)
	}
	return res
}

// onOff renders a Point toggle ("" or "on") for captions.
func onOff(v string) string {
	if v == "on" {
		return "on"
	}
	return "off"
}
