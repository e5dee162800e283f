package sweep

import (
	"fmt"
	"strings"
	"testing"

	"armcivt/internal/sim"
)

// tinyGrid is a real (simulating) contention grid small enough for unit
// tests: 2 topologies x 2 levels at 9 nodes.
func tinyGrid() Grid {
	return Grid{
		Experiment:  ExpContention,
		Topos:       []string{"FCG", "MFCG"},
		Levels:      []string{"none", "20"},
		Nodes:       []int{9},
		PPN:         1,
		Iters:       2,
		SampleEvery: 2,
	}
}

func mustExpand(t *testing.T, g Grid) []Point {
	t.Helper()
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("grid expanded to zero points")
	}
	return points
}

// TestMergedOutputIndependentOfWorkers is the determinism-under-parallelism
// contract: a serial pool and an 8-wide pool must render byte-identical
// merged tables (and identical raw results), because every point is an
// independent deterministic simulation returned in expansion order.
func TestMergedOutputIndependentOfWorkers(t *testing.T) {
	points := mustExpand(t, tinyGrid())
	serial, sst := (&Runner{Workers: 1}).Run(points)
	wide, wst := (&Runner{Workers: 8}).Run(points)
	if sst.Executed != len(points) || wst.Executed != len(points) {
		t.Fatalf("executed %d/%d of %d", sst.Executed, wst.Executed, len(points))
	}
	a, b := Fingerprint(Tables(serial)), Fingerprint(Tables(wide))
	if a != b {
		t.Fatalf("merged tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", a, b)
	}
	for i := range serial {
		if fmt.Sprint(serial[i].X, serial[i].Y) != fmt.Sprint(wide[i].X, wide[i].Y) {
			t.Fatalf("point %d raw results differ across worker counts", i)
		}
	}
}

// TestCacheSecondRunExecutesZeroPoints: a repeated sweep against the same
// cache directory must serve every point from cache and still produce
// byte-identical merged output.
func TestCacheSecondRunExecutesZeroPoints(t *testing.T) {
	points := mustExpand(t, tinyGrid())
	dir := t.TempDir()
	first, fst := (&Runner{Workers: 4, CacheDir: dir}).Run(points)
	if fst.Executed != len(points) || fst.CacheHits != 0 {
		t.Fatalf("first run: executed %d, cached %d", fst.Executed, fst.CacheHits)
	}
	second, sst := (&Runner{Workers: 4, CacheDir: dir}).Run(points)
	if sst.Executed != 0 || sst.CacheHits != len(points) {
		t.Fatalf("second run: executed %d, cached %d (want 0, %d)", sst.Executed, sst.CacheHits, len(points))
	}
	if sst.CacheHitRate() != 1 {
		t.Fatalf("hit rate = %v", sst.CacheHitRate())
	}
	if Fingerprint(Tables(first)) != Fingerprint(Tables(second)) {
		t.Fatal("cached results render differently from live results")
	}
	for _, r := range second {
		if !r.Cached {
			t.Fatalf("point %d not marked cached", r.Point.Index)
		}
	}
}

// TestFailedResultsAreNotCached: a failing point must be retried on the
// next run, not served from cache.
func TestFailedResultsAreNotCached(t *testing.T) {
	points := []Point{{Experiment: ExpContention, Topo: "FCG", Nodes: 4, PPN: 1}}
	Reindex(points)
	dir := t.TempDir()
	fail := &Runner{Workers: 1, CacheDir: dir, Exec: func(p Point, _ ExecOptions) Result {
		return Result{Point: p, Label: p.Label(), Err: "boom"}
	}}
	if _, st := fail.Run(points); st.Failures != 1 {
		t.Fatal("failing executor did not fail")
	}
	executed := 0
	ok := &Runner{Workers: 1, CacheDir: dir, Exec: func(p Point, _ ExecOptions) Result {
		executed++
		return Result{Point: p, Label: p.Label(), Value: 1}
	}}
	if _, st := ok.Run(points); st.CacheHits != 0 || executed != 1 {
		t.Fatalf("failed result was served from cache (hits=%d executed=%d)", st.CacheHits, executed)
	}
}

// TestPanicIsolation: one panicking point becomes its own Result.Err; the
// sweep still completes and every other point succeeds.
func TestPanicIsolation(t *testing.T) {
	var points []Point
	for i := 0; i < 6; i++ {
		points = append(points, Point{Experiment: ExpContention, Topo: fmt.Sprintf("T%d", i)})
	}
	Reindex(points)
	r := &Runner{Workers: 3, Exec: func(p Point, _ ExecOptions) Result {
		if p.Index == 2 {
			panic("simulated executor bug")
		}
		return Result{Point: p, Label: p.Label(), Value: float64(p.Index)}
	}}
	results, st := r.Run(points)
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	for i, res := range results {
		if res.Point.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Point.Index)
		}
		if i == 2 {
			if res.Err == "" || res.Err != "panic: simulated executor bug" {
				t.Fatalf("panic not captured: %q", res.Err)
			}
			continue
		}
		if res.Err != "" || res.Value != float64(i) {
			t.Fatalf("point %d corrupted by neighbour's panic: %+v", i, res)
		}
	}
}

// TestProcessPanicIsolation: a panic inside a simulated process surfaces
// from Engine.Run on the worker executing the point, so it becomes that
// point's Result.Err instead of crashing the sweep.
func TestProcessPanicIsolation(t *testing.T) {
	points := []Point{{Experiment: ExpContention, Topo: "T0"}, {Experiment: ExpContention, Topo: "T1"}}
	Reindex(points)
	r := &Runner{Workers: 2, Exec: func(p Point, _ ExecOptions) Result {
		e := sim.New()
		defer e.Shutdown()
		e.Spawn("worker", func(pr *sim.Proc) {
			pr.Sleep(1)
			if p.Index == 1 {
				panic("process bug")
			}
		})
		if err := e.Run(); err != nil {
			return Result{Point: p, Label: p.Label(), Err: err.Error()}
		}
		return Result{Point: p, Label: p.Label(), Value: 1}
	}}
	results, st := r.Run(points)
	if st.Failures != 1 || results[0].Err != "" {
		t.Fatalf("failures = %d, point 0 err %q; want only point 1 to fail", st.Failures, results[0].Err)
	}
	if !strings.HasPrefix(results[1].Err, "panic:") {
		t.Fatalf("process panic not captured: %q", results[1].Err)
	}
}

// TestBenchRecord: the perf record carries the schema id and per-point
// wall-clocks for every point.
func TestBenchRecord(t *testing.T) {
	points := mustExpand(t, tinyGrid())
	results, st := (&Runner{Workers: 2}).Run(points)
	b := NewBench("spec-under-test", results, st)
	if b.Schema != BenchSchema || b.Grid != "spec-under-test" {
		t.Fatalf("schema/grid = %q/%q", b.Schema, b.Grid)
	}
	if b.Points != len(points) || len(b.PointWalls) != len(points) {
		t.Fatalf("points = %d, walls = %d", b.Points, len(b.PointWalls))
	}
	if b.Executed+b.CacheHits != b.Points {
		t.Fatalf("executed %d + cached %d != points %d", b.Executed, b.CacheHits, b.Points)
	}
	for _, pw := range b.PointWalls {
		if pw.Key == "" || pw.Label == "" {
			t.Fatalf("incomplete point record: %+v", pw)
		}
	}
}
