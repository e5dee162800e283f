package figures

import (
	"fmt"
	"testing"

	"armcivt/internal/core"
)

// The new topology families must honour the same sharded-determinism and
// chaos-invariant contracts as the paper's four, through the same unchanged
// runtime: sharding is physical-torus based and independent of the virtual
// topology, so shard counts {1, 2, 8} must stay bit-identical on HyperX and
// Dragonfly too.

var familySpecs = []string{
	"hyperx",
	"hyperx:4x4x2",
	"dragonfly",
	"dragonfly:g=8,a=4,h=2",
}

func TestFamilyContentionShardDeterminism(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			var base string
			for _, shards := range shardCounts {
				s, err := Contention(ContentionConfig{
					Topo: spec, Nodes: 32, PPN: 2, Iters: 5,
					ContenderEvery: 5, Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if s.Label != spec.String() {
					t.Fatalf("series label %q, want %q", s.Label, spec.String())
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

// TestFamilyChaos runs the crash/recover harness — with its internal ledger,
// credit and detection-latency invariants — on both new families, with and
// without healing, across shard counts. Healing exercises ReplacementHop on
// Dragonfly's class-ordered admissible hops.
func TestFamilyChaos(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/heal=%v", specStr, heal), func(t *testing.T) {
				var base *ChaosResult
				for _, shards := range shardCounts {
					res, err := Chaos(ChaosConfig{
						Topo: spec, Nodes: 32, PPN: 2, Heal: heal, Shards: shards,
					})
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
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

// TestFamilyOverload runs the incast-storm harness once per family with
// protection on: the shed-ledger and fairness invariants must hold unchanged
// on the new topologies.
func TestFamilyOverload(t *testing.T) {
	for _, specStr := range []string{"hyperx:4x4x2", "dragonfly:g=8,a=4,h=2"} {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			res, err := Overload(OverloadConfig{
				Topo: spec, Nodes: 32, PPN: 2, OpsPerRank: 16,
				Protect: true, GoodputFloor: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Issued == 0 || res.Completed == 0 {
				t.Fatalf("degenerate overload run: %+v", res)
			}
		})
	}
}

// TestFamilyFig5PointSpec checks the memscale unit on shaped specs against
// the unshaped equivalents.
func TestFamilyFig5PointSpec(t *testing.T) {
	classic, err := Fig5Point(128, 4, core.MFCG)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := Fig5PointSpec(128, 4, core.Spec{Kind: core.MFCG})
	if err != nil {
		t.Fatal(err)
	}
	if classic != viaSpec {
		t.Fatalf("Fig5Point %v != Fig5PointSpec %v for the same topology", classic, viaSpec)
	}
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := Fig5PointSpec(128, 4, spec)
		if err != nil {
			t.Fatalf("%s: %v", specStr, err)
		}
		if mb <= 0 {
			t.Fatalf("%s: non-positive RSS %v", specStr, mb)
		}
	}
}
