package figures

import (
	"fmt"
	"testing"

	"armcivt/internal/apps/lu"
	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// The sharded-kernel determinism contract (docs/PARALLELISM.md): every
// figure driver and the chaos harness must produce bit-identical results at
// every shard count. These tests run each driver at -shards 1, 2 and 8 over
// all four topologies and compare the full result structures, not summaries:
// any divergence in any series point, stats counter or ledger tally fails.

var shardCounts = []int{1, 2, 8}

func TestContentionShardDeterminism(t *testing.T) {
	ops := []struct {
		name string
		op   ContentionOp
	}{
		{"fig6-vput", OpVectoredPut},
		{"fig7-fadd", OpFetchAdd},
	}
	for _, tc := range ops {
		for _, kind := range core.Kinds {
			t.Run(fmt.Sprintf("%s/%v", tc.name, kind), func(t *testing.T) {
				var base string
				for _, shards := range shardCounts {
					s, err := Contention(ContentionConfig{
						Kind: kind, Nodes: 32, PPN: 2, Iters: 5,
						ContenderEvery: 5, Op: tc.op, Shards: shards,
					})
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					got := fmt.Sprintf("%v %v", s.X, s.Y)
					if shards == shardCounts[0] {
						base = got
					} else if got != base {
						t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
					}
				}
			})
		}
	}
}

// TestContentionShardDeterminismWithProtocolToggles covers the aggregation +
// adaptive-credit + windowed pipeline paths, which exercise batching,
// credit-shift and regen machinery under the sharded kernel.
func TestContentionShardDeterminismWithProtocolToggles(t *testing.T) {
	var base string
	for _, shards := range shardCounts {
		s, err := Contention(ContentionConfig{
			Kind: core.MFCG, Nodes: 32, PPN: 2, Iters: 6, ContenderEvery: 5,
			Window: 4, Aggregation: true, AdaptiveCredits: true, Shards: shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := fmt.Sprintf("%v %v", s.X, s.Y)
		if shards == shardCounts[0] {
			base = got
		} else if got != base {
			t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
		}
	}
}

func TestChaosShardDeterminism(t *testing.T) {
	for _, kind := range core.Kinds {
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/heal=%v", kind, heal), func(t *testing.T) {
				var base *ChaosResult
				for _, shards := range shardCounts {
					res, err := Chaos(ChaosConfig{
						Kind: kind, Nodes: 32, PPN: 2, Heal: heal, Shards: shards,
					})
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					// Compare the ledger tallies AND the full merged stats
					// block: timeouts, retries, heals, detection latencies.
					if base == nil {
						base = res
					} else {
						requireSameChaos(t, fmt.Sprintf("shards=%d", shards), base, res)
					}
				}
			})
		}
	}
}

// TestAppShardDeterminism runs the NAS LU proxy (notify-wait wavefronts,
// allreduce collectives) across shard counts: the app figures must honour
// the same contract as the microbenchmarks.
func TestAppShardDeterminism(t *testing.T) {
	cfg := lu.Config{NX: 64, NY: 64, Iters: 3, CellFlop: 100, ResidualEvery: 2}
	var base string
	for _, shards := range shardCounts {
		ss, err := Fig8([]int{32}, 2, shards, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var got string
		for _, s := range ss {
			got += fmt.Sprintf("%s %v %v\n", s.Label, s.X, s.Y)
		}
		if shards == shardCounts[0] {
			base = got
		} else if got != base {
			t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
		}
	}
}

// TestShardMetricsExported: a sharded instrumented run reports the kernel's
// execution counters, and sim_shards reflects the configured count.
func TestShardMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := Contention(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
		Shards: 4, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"sim_shards", "sim_windows_total", "sim_serial_instants_total",
		"sim_idle_lane_windows_total", "sim_lane_events_total", "sim_shard_utilization",
	} {
		if !names[want] {
			t.Errorf("sharded run did not export %q", want)
		}
	}
}

// TestShardsIncompatibleWithTraceIsForcedSerial: tracing forces the serial
// kernel rather than erroring, and — per the contract — the result is
// unchanged.
func TestShardsIncompatibleWithTraceIsForcedSerial(t *testing.T) {
	serial, err := Contention(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Contention(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
		Shards: 8, Trace: obs.NewTracer(), TracePID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v %v", serial.X, serial.Y) != fmt.Sprintf("%v %v", traced.X, traced.Y) {
		t.Fatal("trace-forced serial run diverges from plain serial run")
	}
}
