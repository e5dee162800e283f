package armcivt_test

// BENCH_aggregation.json is the committed perf record of the tentpole
// result, two measurements per topology at paper scale (256 nodes):
//
//   - the Fig 7-style contention grid (20% contenders, pipelined
//     fetch-&-adds): aggregation must REDUCE per-op virtual latency. The
//     contender loop fills the measured span with as many ops as the
//     protocol allows, so whole-run wall-clock is NOT comparable here — a
//     faster protocol simulates more work (on FCG, ~90x more completed
//     contender ops under aggregation).
//   - the fixed-work storm (aggStormTime in bench_test.go): identical op
//     count off vs on, so aggregation must reduce BOTH the virtual
//     completion time and the simulator's real wall-clock.
//
// TestAggregationBenchRecord validates the committed record cheaply on
// every test run; the expensive regeneration (twelve 256-node simulations,
// a few minutes) runs only with -update-bench-agg. CI additionally
// re-proves the win live at reduced scale via
// `sweep -preset fig6-agg-ci -assert-agg`.

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"armcivt/internal/core"
	"armcivt/internal/figures"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

var updateBenchAgg = flag.Bool("update-bench-agg", false, "re-run the 256-node aggregation grid and rewrite BENCH_aggregation.json (slow)")

const benchAggPath = "BENCH_aggregation.json"

// benchAggSchema versions the BENCH_aggregation.json layout.
const benchAggSchema = "armcivt-bench-aggregation/v1"

type benchAggRecord struct {
	Schema string `json:"schema"`
	// Workload pins the cell every pair shares (see aggContentionConfig).
	Workload struct {
		Nodes          int    `json:"nodes"`
		PPN            int    `json:"ppn"`
		Op             string `json:"op"`
		ContenderEvery int    `json:"contender_every"`
		Window         int    `json:"window"`
		Iters          int    `json:"iters"`
	} `json:"workload"`
	Pairs []benchAggPair `json:"pairs"`
}

type benchAggPair struct {
	Topo       string  `json:"topo"`
	MeanOffVUS float64 `json:"mean_off_vus_per_op"`
	MeanOnVUS  float64 `json:"mean_on_vus_per_op"`
	P99OffVUS  float64 `json:"p99_off_vus_per_op"`
	P99OnVUS   float64 `json:"p99_on_vus_per_op"`
	Speedup    float64 `json:"speedup_virtual"`
	// Storm* fields come from the fixed-work storm, the only cell where
	// off and on simulate identical work and wall-clock is comparable.
	StormOffVUS    float64 `json:"storm_off_vus"`
	StormOnVUS     float64 `json:"storm_on_vus"`
	StormWallOffMS float64 `json:"storm_wall_off_ms"`
	StormWallOnMS  float64 `json:"storm_wall_on_ms"`
}

func TestAggregationBenchRecord(t *testing.T) {
	if *updateBenchAgg {
		regenerateBenchAgg(t)
	}
	raw, err := os.ReadFile(benchAggPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-bench-agg): %v", benchAggPath, err)
	}
	var rec benchAggRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing %s: %v", benchAggPath, err)
	}
	if rec.Schema != benchAggSchema {
		t.Fatalf("schema = %q, want %q", rec.Schema, benchAggSchema)
	}
	if rec.Workload.Nodes < 256 {
		t.Errorf("record taken at %d nodes; the acceptance scale is >= 256", rec.Workload.Nodes)
	}
	if len(rec.Pairs) < 3 {
		t.Fatalf("record has %d pairs, want FCG/MFCG/CFCG", len(rec.Pairs))
	}
	for _, p := range rec.Pairs {
		if p.MeanOnVUS >= p.MeanOffVUS {
			t.Errorf("%s: aggregated mean %.2f vus/op not below baseline %.2f", p.Topo, p.MeanOnVUS, p.MeanOffVUS)
		}
		if p.StormOnVUS >= p.StormOffVUS {
			t.Errorf("%s: aggregated storm completes at %.2f vus, not below baseline %.2f", p.Topo, p.StormOnVUS, p.StormOffVUS)
		}
		if p.StormWallOnMS >= p.StormWallOffMS {
			t.Errorf("%s: aggregated storm wall %.0f ms not below baseline %.0f ms", p.Topo, p.StormWallOnMS, p.StormWallOffMS)
		}
	}
}

func regenerateBenchAgg(t *testing.T) {
	var rec benchAggRecord
	rec.Schema = benchAggSchema
	sample := aggContentionConfig(core.FCG, false)
	rec.Workload.Nodes = sample.Nodes
	rec.Workload.PPN = sample.PPN
	rec.Workload.Op = sample.Op.String()
	rec.Workload.ContenderEvery = sample.ContenderEvery
	rec.Workload.Window = sample.Window
	rec.Workload.Iters = sample.Iters
	run := func(kind core.Kind, agg bool) stats.Summary {
		s, err := figures.Contention(aggContentionConfig(kind, agg))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Summarize(s.Y)
	}
	storm := func(kind core.Kind, agg bool) (float64, time.Duration) {
		t0 := time.Now()
		vt := aggStormTime(t, kind, agg)
		return vt.Micros(), time.Since(t0)
	}
	for _, kind := range []core.Kind{core.FCG, core.MFCG, core.CFCG} {
		off := run(kind, false)
		on := run(kind, true)
		stormOff, wallOff := storm(kind, false)
		stormOn, wallOn := storm(kind, true)
		p := benchAggPair{
			Topo:       kind.String(),
			MeanOffVUS: off.Mean, MeanOnVUS: on.Mean,
			P99OffVUS: off.P99, P99OnVUS: on.P99,
			StormOffVUS: stormOff, StormOnVUS: stormOn,
			StormWallOffMS: float64(wallOff.Milliseconds()),
			StormWallOnMS:  float64(wallOn.Milliseconds()),
		}
		if on.Mean > 0 {
			p.Speedup = off.Mean / on.Mean
		}
		rec.Pairs = append(rec.Pairs, p)
		t.Logf("%s: contention mean %.2f -> %.2f vus/op (%.1fx); storm %.0f -> %.0f vus, wall %v -> %v",
			kind, off.Mean, on.Mean, p.Speedup, stormOff, stormOn, wallOff, wallOn)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteFileAtomic(benchAggPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", benchAggPath)
}
