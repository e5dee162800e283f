package sweep_test

// Documentation-drift check for the sweep engine, the same pattern
// internal/obs uses for the runtime metrics: docs/SWEEP.md is the schema
// of record for every sweep_* metric the runner emits, and for the
// BENCH_sweep.json layout. These tests fail when code and document
// diverge in either direction.

import (
	"os"
	"strings"
	"testing"

	"armcivt/internal/obs"
	"armcivt/internal/sweep"
)

// sweepRegistry drives the runner through every metric-emitting path —
// executed points, cache hits, a failure — against one registry, using a
// stub executor so the test measures the engine, not the simulator.
func sweepRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	dir := t.TempDir()
	points := []sweep.Point{
		{Experiment: sweep.ExpContention, Topo: "FCG", Nodes: 4, PPN: 1},
		{Experiment: sweep.ExpContention, Topo: "MFCG", Nodes: 4, PPN: 1},
		{Experiment: sweep.ExpContention, Topo: "CFCG", Nodes: 8, PPN: 1},
	}
	sweep.Reindex(points)
	exec := func(p sweep.Point, _ sweep.ExecOptions) sweep.Result {
		if p.Index == 2 {
			return sweep.Result{Point: p, Label: p.Label(), Err: "stub failure"}
		}
		return sweep.Result{Point: p, Label: p.Label(), Value: float64(p.Index)}
	}
	r := &sweep.Runner{Workers: 2, CacheDir: dir, Metrics: reg, Exec: exec}
	r.Run(points) // first pass: executed points + one failure
	r.Run(points) // second pass: cache hits (the failed point re-executes)
	return reg
}

func TestEverySweepMetricIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SWEEP.md")
	if err != nil {
		t.Fatal(err)
	}
	names := sweepRegistry(t).Names()
	if len(names) < 8 {
		t.Fatalf("workload registered only %d metric names; the drift workload regressed: %v", len(names), names)
	}
	for _, name := range names {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("metric %q is emitted but not documented in docs/SWEEP.md", name)
		}
	}
}

// TestSweepDocsCoverEmittedNames is the inverse check: every documented
// sweep_* name must actually be emitted, so the drift test cannot rot
// into vacuity.
func TestSweepDocsCoverEmittedNames(t *testing.T) {
	have := map[string]bool{}
	for _, n := range sweepRegistry(t).Names() {
		have[n] = true
	}
	for _, want := range []string{
		"sweep_workers", "sweep_points_total", "sweep_executed_total",
		"sweep_cache_hits_total", "sweep_failures_total",
		"sweep_point_wall_us", "sweep_eta_seconds", "sweep_cache_hit_rate",
		"sweep_cache_corrupt_total",
	} {
		if !have[want] {
			t.Errorf("documented metric %q not emitted by the drift workload", want)
		}
	}
}

// TestSweepDocsLinked: the two documents this PR's features are specified
// in must exist and be reachable from the README.
func TestSweepDocsLinked(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/SWEEP.md", "docs/ARCHITECTURE.md"} {
		if _, err := os.Stat("../../" + doc); err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README.md does not link %s", doc)
		}
	}
}

// TestBenchSchemaDocumented: the schema id consumers must check is pinned
// in docs/SWEEP.md next to the field table.
func TestBenchSchemaDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SWEEP.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), sweep.BenchSchema) {
		t.Fatalf("docs/SWEEP.md does not pin the bench schema id %q", sweep.BenchSchema)
	}
}
