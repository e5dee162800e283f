// Command memscale regenerates Figure 5 of the paper: master-process memory
// consumption versus process count for FCG, MFCG, CFCG, and Hypercube, at
// the paper's constants (12 processes/node, 16 KB buffers, 4 per process).
//
// The (topology x process-count) cells run through the internal/sweep
// worker pool (-j N; serial by default) — each cell is an independent
// deterministic computation, so the table is byte-identical at any -j.
// cmd/sweep runs the same grid as `sweep -preset fig5`.
//
// With -scale N the command instead runs one large-N scaling point of the
// simulated runtime itself (docs/SCALING.md): N simulated nodes on a
// Hypercube carrying the Fig 5/6 incast workload, reporting wall clock,
// hot-path allocation rate, and live footprint next to the analytic Fig 5
// model for the same node. This is the CI smoke entry point for the
// BENCH_scale.json record:
//
//	memscale -scale 16384 -measure -json
//	memscale -scale 16384 -measure -max-live-mb 256   # nonzero exit on breach
//
// Usage:
//
//	memscale [-ppn 12] [-procs 768,1536,3072,6144,12288] [-j N] [-csv]
//	         [-topos fcg,mfcg,cfcg,hypercube,hyperx:8x8x8,...]
//	memscale -scale N [-shards K] [-measure] [-max-live-mb M] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"armcivt/internal/core"
	"armcivt/internal/figures"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

// runScalePoint runs one docs/SCALING.md scaling point and reports it,
// either human-readable or as a row in the BENCH_scale.json shape. With a
// -max-live-mb ceiling it turns into a CI gate: a live footprint above the
// ceiling exits nonzero.
func runScalePoint(nodes, shards int, measure bool, maxLiveMB float64, jsonOut bool) {
	t0 := time.Now()
	res, err := figures.Scale(figures.ScaleConfig{
		Nodes: nodes, Shards: shards, Measure: measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(t0)

	if jsonOut {
		row := struct {
			Nodes          int     `json:"nodes"`
			WallMS         float64 `json:"wall_ms"`
			Mallocs        uint64  `json:"mallocs"`
			AllocsPerOp    float64 `json:"allocs_per_op"`
			LiveBytes      uint64  `json:"live_bytes"`
			Fingerprint    string  `json:"fingerprint"`
			MasterRSSBytes int64   `json:"master_rss_bytes"`
		}{
			Nodes: res.Nodes, WallMS: float64(wall.Milliseconds()),
			Mallocs: res.MallocsDelta, AllocsPerOp: res.AllocsPerOp,
			LiveBytes: res.LiveBytes, Fingerprint: fmt.Sprintf("%016x", res.Fingerprint),
			MasterRSSBytes: res.MasterRSS,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(row)
	} else {
		fmt.Printf("scale point: %d nodes, %d actives, %d ops (Hypercube, shards=%d)\n",
			res.Nodes, res.Actives, res.Ops, shards)
		fmt.Printf("  wall clock     %v\n", wall)
		fmt.Printf("  virtual time   %v\n", res.VirtualTime)
		fmt.Printf("  fingerprint    %016x\n", res.Fingerprint)
		fmt.Printf("  analytic RSS   %.1f MB (Fig 5 model, target node)\n", float64(res.MasterRSS)/(1<<20))
		if measure {
			fmt.Printf("  allocs/op      %.1f (%d mallocs over the measured phase)\n", res.AllocsPerOp, res.MallocsDelta)
			fmt.Printf("  live bytes     %.1f MB after end-of-phase GC\n", float64(res.LiveBytes)/(1<<20))
		}
	}
	if measure && maxLiveMB > 0 {
		if live := float64(res.LiveBytes) / (1 << 20); live > maxLiveMB {
			fmt.Fprintf(os.Stderr, "memscale: live footprint %.1f MB exceeds the %.1f MB ceiling\n", live, maxLiveMB)
			os.Exit(1)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	ppn := flag.Int("ppn", 12, "processes per node")
	procsFlag := flag.String("procs", "768,1536,3072,6144,12288", "comma-separated process counts")
	toposFlag := flag.String("topos", "fcg,mfcg,cfcg,hypercube", "topology specs for the Fig 5 table: bare kinds or parameterized (hyperx:8x8x8, dragonfly:g=32,a=16,h=2)")
	jobs := flag.Int("j", 1, "worker-pool size for the (topology x processes) grid")
	shards := flag.Int("shards", 1, "conservative-parallel kernel shards per run (1 = serial; results are bit-identical, see docs/PARALLELISM.md)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	scale := flag.Int("scale", 0, "run one large-N scaling point on this many simulated nodes (a power of two) instead of the Fig 5 table; see docs/SCALING.md")
	measure := flag.Bool("measure", false, "with -scale: record hot-path allocs/op and live bytes (meaningful on the serial kernel only)")
	maxLiveMB := flag.Float64("max-live-mb", 0, "with -scale -measure: exit nonzero if live bytes exceed this many MB (CI footprint smoke)")
	jsonOut := flag.Bool("json", false, "with -scale: emit the point as a BENCH_scale.json-shaped row")
	flag.Parse()

	if *scale > 0 {
		runScalePoint(*scale, *shards, *measure, *maxLiveMB, *jsonOut)
		return
	}

	procs, err := parseInts(*procsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -procs:", err)
		os.Exit(2)
	}
	for _, p := range procs {
		if p%*ppn != 0 {
			fmt.Fprintf(os.Stderr, "figures: %d processes not divisible by ppn %d\n", p, *ppn)
			os.Exit(1)
		}
	}
	specs, err := core.ParseSpecList(*toposFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	grid := sweep.Grid{Experiment: sweep.ExpMemscale, PPN: *ppn, Procs: procs}
	for _, spec := range specs {
		grid.Topos = append(grid.Topos, spec.String())
	}
	points, err := grid.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runner := &sweep.Runner{Workers: *jobs, Shards: *shards}
	results, _ := runner.Run(points)

	// One series per topology spec in flag order — specs whose every cell
	// was skipped still get their (empty) column, exactly as Fig5 renders
	// them.
	byKind := map[string]*stats.Series{}
	var series []*stats.Series
	for _, spec := range specs {
		s := &stats.Series{Label: spec.String()}
		byKind[spec.String()] = s
		series = append(series, s)
	}
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
		byKind[r.Label].Add(float64(r.Point.Procs), r.Value)
	}
	tbl := stats.SeriesTable(
		"Figure 5: master-process memory (MBytes) vs processes",
		"processes", series)
	if *csv {
		tbl.WriteCSV(os.Stdout)
	} else {
		tbl.Write(os.Stdout)
	}

	fmt.Println()
	fmt.Println("Buffer-driven RSS increment over the base footprint (paper: FCG +812 MB at 12,288 procs,")
	fmt.Println("cut 7.5x / 16.6x / 45x by MFCG / CFCG / Hypercube):")
	top := procs[len(procs)-1]
	fcgInc, err := figures.Fig5Increment(top, *ppn, core.FCG)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  FCG        +%7.1f MB\n", fcgInc)
	for _, kind := range []core.Kind{core.MFCG, core.CFCG, core.Hypercube} {
		inc, err := figures.Fig5Increment(top, *ppn, kind)
		if err != nil {
			fmt.Printf("  %-10s n/a (%v)\n", kind, err)
			continue
		}
		fmt.Printf("  %-10s +%7.1f MB  (%.1fx reduction)\n", kind, inc, fcgInc/inc)
	}
}
