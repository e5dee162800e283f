package armcivt_test

// BENCH_scale.json is the committed large-N scaling record of the runtime's
// per-node footprint and hot-path allocation rate (docs/SCALING.md): the
// Fig 5/6 incast harness measured at 1k, 4k, 16k, and 64k simulated nodes on
// a Hypercube. Three claims are on record:
//
//   - allocs/op: the measured hot-path allocation rate at 16k nodes must be
//     at least 4x below main_baseline.allocs_per_op, the rate measured on
//     main before the arena/pool flattening (190.6). The live floor is
//     enforced separately by TestScaleAllocsCeiling on every test run.
//   - wall-clock: the 64k-node point completes within wall_budget_ms on the
//     recording host — the "Fig 6 at 64k runs on a laptop in minutes" claim.
//   - determinism: every row's fingerprint was reproduced bit-identically at
//     the shard counts in shards_verified before the row was written.
//
// TestScaleBenchRecord validates the committed record cheaply on every test
// run; the expensive regeneration (four scale points, the largest simulating
// 65,536 nodes) runs only with -update-bench-scale.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"armcivt/internal/figures"
	"armcivt/internal/sweep"
)

var updateBenchScale = flag.Bool("update-bench-scale", false, "re-run the large-N scaling grid and rewrite BENCH_scale.json (slow: ~10s)")

const benchScalePath = "BENCH_scale.json"

// benchScaleSchema versions the BENCH_scale.json layout.
const benchScaleSchema = "armcivt-bench-scale/v1"

// benchScaleNodes is the measured grid; benchScaleShards are the shard
// counts each row's fingerprint is re-proved at before it is recorded.
var (
	benchScaleNodes  = []int{1024, 4096, 16384, 65536}
	benchScaleShards = []int{2, 8}
)

// benchScaleBaselineAllocsPerOp is the hot-path allocation rate of the 16k
// point measured on main immediately before the arena/pool flattening. The
// record must stay at least 4x below it.
const benchScaleBaselineAllocsPerOp = 190.6

// benchScaleWallBudgetMS bounds the 64k-node row's recorded wall clock.
const benchScaleWallBudgetMS = 120_000

type benchScaleRecord struct {
	Schema string `json:"schema"`
	// HostCPUs is runtime.NumCPU() on the recording host — the context a
	// wall-clock number is meaningless without.
	HostCPUs int `json:"host_cpus"`
	// Workload pins the incast cell every row shares (see figures.Scale).
	Workload struct {
		Topo      string `json:"topo"`
		Actives   int    `json:"actives"`
		Iters     int    `json:"iters"`
		Window    int    `json:"window"`
		VecSegs   int    `json:"vec_segs"`
		VecSegLen int    `json:"vec_seg_len"`
	} `json:"workload"`
	// MainBaseline pins the pre-flattening allocation rate the >= 4x
	// reduction claim is measured against.
	MainBaseline struct {
		Nodes       int     `json:"nodes"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"main_baseline"`
	// WallBudgetMS is the ceiling the largest row's wall_ms must clear.
	WallBudgetMS float64 `json:"wall_budget_ms"`
	// ShardsVerified lists the shard counts every row's fingerprint was
	// reproduced at during regeneration.
	ShardsVerified []int           `json:"shards_verified"`
	Rows           []benchScaleRow `json:"rows"`
}

type benchScaleRow struct {
	Nodes       int     `json:"nodes"`
	WallMS      float64 `json:"wall_ms"`
	Mallocs     uint64  `json:"mallocs"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	LiveBytes   uint64  `json:"live_bytes"`
	// Fingerprint hashes per-active completion instants (hex); identical
	// across shard counts per the determinism contract.
	Fingerprint string `json:"fingerprint"`
	// MasterRSSBytes is the analytic Fig 5 memory model for the target
	// node, the companion number docs/SCALING.md compares LiveBytes against.
	MasterRSSBytes int64 `json:"master_rss_bytes"`
}

func TestScaleBenchRecord(t *testing.T) {
	if *updateBenchScale {
		regenerateBenchScale(t)
	}
	raw, err := os.ReadFile(benchScalePath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-bench-scale): %v", benchScalePath, err)
	}
	var rec benchScaleRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing %s: %v", benchScalePath, err)
	}
	if rec.Schema != benchScaleSchema {
		t.Fatalf("schema = %q, want %q", rec.Schema, benchScaleSchema)
	}
	if rec.HostCPUs < 1 {
		t.Errorf("host_cpus = %d; the record must pin the recording host's core count", rec.HostCPUs)
	}
	if len(rec.ShardsVerified) == 0 {
		t.Error("record carries no shards_verified list; fingerprints are unproven")
	}

	rows := map[int]benchScaleRow{}
	for _, r := range rec.Rows {
		if r.WallMS <= 0 || r.LiveBytes == 0 || r.AllocsPerOp <= 0 {
			t.Errorf("nodes=%d: degenerate row %+v", r.Nodes, r)
		}
		if r.Fingerprint == "" {
			t.Errorf("nodes=%d: empty fingerprint", r.Nodes)
		}
		rows[r.Nodes] = r
	}
	for _, nodes := range benchScaleNodes {
		if _, ok := rows[nodes]; !ok {
			t.Fatalf("record is missing the %d-node row", nodes)
		}
	}

	// Claim 1: >= 4x allocs/op reduction at the baseline's scale.
	base := rec.MainBaseline
	if base.AllocsPerOp != benchScaleBaselineAllocsPerOp {
		t.Errorf("main_baseline.allocs_per_op = %.1f, want the pinned %.1f",
			base.AllocsPerOp, benchScaleBaselineAllocsPerOp)
	}
	at16k := rows[base.Nodes]
	if ceiling := base.AllocsPerOp / 4; at16k.AllocsPerOp > ceiling {
		t.Errorf("allocs/op at %d nodes = %.1f, exceeds the 4x-reduction ceiling %.1f",
			base.Nodes, at16k.AllocsPerOp, ceiling)
	}

	// Claim 2: the 64k point fits the recorded wall budget.
	if rec.WallBudgetMS != benchScaleWallBudgetMS {
		t.Errorf("wall_budget_ms = %.0f, want the pinned %d", rec.WallBudgetMS, benchScaleWallBudgetMS)
	}
	top := rows[benchScaleNodes[len(benchScaleNodes)-1]]
	if top.WallMS > rec.WallBudgetMS {
		t.Errorf("64k wall clock %.0fms exceeds the %.0fms budget", top.WallMS, rec.WallBudgetMS)
	}
}

// TestScaleAllocsCeiling enforces the allocs/op contract live on every test
// run, not just against the committed record: one measured 1k-node point
// (tens of milliseconds) must stay under a ceiling set at roughly 2x the
// recorded rate, so a hot-path regression fails CI before anyone regenerates
// BENCH_scale.json.
func TestScaleAllocsCeiling(t *testing.T) {
	const ceiling = 32.0
	res, err := figures.Scale(figures.ScaleConfig{Nodes: 1024, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerOp > ceiling {
		t.Errorf("hot-path allocation rate %.1f allocs/op exceeds the %.0f ceiling (docs/SCALING.md)",
			res.AllocsPerOp, ceiling)
	}
}

func regenerateBenchScale(t *testing.T) {
	var rec benchScaleRecord
	rec.Schema = benchScaleSchema
	rec.HostCPUs = runtime.NumCPU()
	rec.Workload.Topo = "Hypercube"
	rec.Workload.Actives = 64
	rec.Workload.Iters = 16
	rec.Workload.Window = 4
	rec.Workload.VecSegs, rec.Workload.VecSegLen = 8, 64
	rec.MainBaseline.Nodes = 16384
	rec.MainBaseline.AllocsPerOp = benchScaleBaselineAllocsPerOp
	rec.WallBudgetMS = benchScaleWallBudgetMS
	rec.ShardsVerified = benchScaleShards

	for _, nodes := range benchScaleNodes {
		t0 := time.Now()
		res, err := figures.Scale(figures.ScaleConfig{Nodes: nodes, Measure: true})
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		for _, shards := range benchScaleShards {
			rs, err := figures.Scale(figures.ScaleConfig{Nodes: nodes, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Fingerprint != res.Fingerprint {
				t.Fatalf("nodes=%d shards=%d: fingerprint %016x != serial %016x — refusing to record a broken contract",
					nodes, shards, rs.Fingerprint, res.Fingerprint)
			}
		}
		rec.Rows = append(rec.Rows, benchScaleRow{
			Nodes:          nodes,
			WallMS:         float64(wall.Milliseconds()),
			Mallocs:        res.MallocsDelta,
			AllocsPerOp:    res.AllocsPerOp,
			LiveBytes:      res.LiveBytes,
			Fingerprint:    fmt.Sprintf("%016x", res.Fingerprint),
			MasterRSSBytes: res.MasterRSS,
		})
		t.Logf("nodes=%d wall=%v allocs/op=%.1f live=%.1fMB fp=%016x",
			nodes, wall, res.AllocsPerOp, float64(res.LiveBytes)/(1<<20), res.Fingerprint)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteFileAtomic(benchScalePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", benchScalePath)
}
