package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"armcivt/internal/armci"
)

// tiny returns w shrunk to a size that runs in milliseconds, keeping its
// kind, topology family and every code path its full size exercises.
func tiny(w *Workload) *Workload {
	t := *w
	t.Iters = 4
	switch w.Kind {
	case hotspotPutV:
		t.Nodes, t.PPN, t.SampleEvery, t.VecSegs, t.VecSegLen = 9, 2, 2, 4, 16
	case hotspotFAdd:
		t.Nodes, t.PPN, t.SampleEvery = 8, 2, 2
	case chaosHeal:
		t.Nodes, t.Crashes = 16, 2
	case scaleIncast:
		t.Nodes, t.Actives, t.Window, t.VecSegs, t.VecSegLen = 256, 8, 2, 2, 8
	}
	return &t
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONMatchesWorkloadTable(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.Name, w.Why)
		}
	}
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed by
// name with its unit, and that the JSON line carries exactly those metrics.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var out bytes.Buffer
			if err := bench(&out, w, 1, time.Nanosecond, traced, t.TempDir()); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: result %+v", w.Name, traced, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: JSON has %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: JSON has %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
				printed := false
				for _, l := range lines {
					f := strings.Fields(l)
					if len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						printed = true
					}
				}
				if !printed {
					t.Errorf("%s traced=%v: metric %s is not printed with unit %s", w.Name, traced, m.Name, m.Unit)
				}
			}
			if !traced && !strings.Contains(out.String(), "failed_op_frac") {
				t.Errorf("%s: failed_op_frac not printed", w.Name)
			}
			if traced && !strings.Contains(out.String(), "span rt.Run") {
				t.Errorf("%s: traced run printed no span summary", w.Name)
			}
		}
	}
}

// TestCorruptedOutcomeFails corrupts one outcome of each workload after
// its run and checks that the run fails its correctness check.
func TestCorruptedOutcomeFails(t *testing.T) {
	corrupt := map[kind]func(rt *armci.Runtime){
		hotspotPutV: func(rt *armci.Runtime) { rt.Memory(0, "hot")[8+2*rt.NRanks()]++ },
		hotspotFAdd: func(rt *armci.Runtime) { rt.Memory(0, "hot")[0]++ },
		chaosHeal: func(rt *armci.Runtime) {
			// One extra +1 in a survivor's ledger slot reads as a double-apply.
			mem := rt.Memory(1, "chaos")
			for o := 0; o < rt.NRanks(); o++ {
				if armci.GetFloat64(mem, 8*o) > 0 {
					armci.PutFloat64(mem, 8*o, armci.GetFloat64(mem, 8*o)+1)
					return
				}
			}
			armci.PutFloat64(mem, 0, 1) // or a victim slot becomes non-zero
		},
		scaleIncast: func(rt *armci.Runtime) { rt.Memory(0, "hot")[8]++ },
	}
	for _, w := range workloads {
		w := tiny(w)
		in, err := generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOnce(w, in, newSpanLog(), nil, nil); err != nil {
			t.Fatalf("%s: clean run failed: %v", w.Name, err)
		}
		_, err = runOnce(w, in, newSpanLog(), nil, corrupt[w.Kind])
		if err == nil || !strings.Contains(err.Error(), "correctness check failed") {
			t.Errorf("%s: corrupted run returned %v, want a correctness failure", w.Name, err)
		}
	}
}

func TestSameSeedSameOutcome(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		key := func(seed int64) string {
			in, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOnce(w, in, newSpanLog(), nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			return res.virtKey()
		}
		if a, b := key(5), key(5); a != b {
			t.Errorf("%s: seed 5 gave %s, then %s", w.Name, a, b)
		}
		if a, b := key(5), key(6); a == b {
			t.Errorf("%s: seeds 5 and 6 gave the same outcome %s", w.Name, a)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"armcivt/internal/sim.(*Engine).run":               "sim",
		"armcivt/internal/sim.(*Queue[...]).Get":           "sim",
		"armcivt/internal/fabric.(*Network).step":          "fabric",
		"armcivt/internal/armci.(*nodeState).chtLoop":      "armci",
		"armcivt/internal/core.(*grid).NextHop":            "core",
		"armcivt/internal/faults.(*Injector).NodeDown":     "faults",
		"armcivt/internal/obs.(*Histogram).Observe":        "other",
		"runtime.mallocgc":                                 "goruntime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "goruntime",
		"runtime/internal/atomic.Load":                     "goruntime",
		"main.(*hotspot).body.func2":                       "other",
		"sort.Ints":                                        "other",
		"armcivt/internal/sim.keyLess[go.shape.struct {}]": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestCPUByLayerDecodesProfile profiles a busy loop and checks that the
// decoder finds its samples.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	byLayer, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range byLayer {
		total += c
	}
	if total == 0 || byLayer["other"] == 0 {
		t.Errorf("busy loop (%d) profiled as %v", x, byLayer)
	}
	if _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
