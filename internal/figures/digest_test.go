package figures

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// requireSameChaos fails t unless res reproduces base. A split is reported as
// the first boundary and layer where the runs' digests differ; only a split
// after the last boundary falls back to printing both results.
func requireSameChaos(t *testing.T, label string, base, res *ChaosResult) {
	t.Helper()
	if err := armci.FirstDivergence(base.Digests, res.Digests); err != nil {
		t.Fatalf("%s: %v (fingerprints %016x vs %016x)", label, err, base.Fingerprint, res.Fingerprint)
	}
	a, b := *base, *res
	a.Digests, b.Digests = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: digests agree through boundary %d but results differ:\n%+v\nvs\n%+v",
			label, len(base.Digests), a, b)
	}
}

// digestSpecs covers all six topology families: the paper's four plus the
// two parameterized families of the spec grammar.
var digestSpecs = []string{
	"fcg",
	"mfcg",
	"cfcg",
	"hypercube",
	"hyperx:4x4x2",
	"dragonfly:g=8,a=4,h=2",
}

// Every family under armed chaos (crashes plus a storm), overload protection
// and healing digests at least two boundaries, and the digests and the
// ledger fingerprint are identical at shards 1, 2 and 8.
func TestChaosDigestsAcrossFamiliesAndShards(t *testing.T) {
	for _, specStr := range digestSpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			var base *ChaosResult
			for _, shards := range shardCounts {
				res, err := Chaos(ChaosConfig{
					Topo: spec, Nodes: 32, PPN: 2, OpsPerRank: 8,
					Crashes: 2, Storms: 1, Overload: true, Heal: true, Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if len(res.Digests) < 2 {
					t.Fatalf("shards=%d: digested %d boundaries, want >= 2", shards, len(res.Digests))
				}
				if res.Issued == 0 || res.Completed == 0 {
					t.Fatalf("shards=%d: degenerate workload: %d issued, %d completed", shards, res.Issued, res.Completed)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Fingerprint != base.Fingerprint {
					t.Errorf("shards=%d: fingerprint %016x, serial %016x", shards, res.Fingerprint, base.Fingerprint)
				}
				requireSameChaos(t, fmt.Sprintf("shards=%d", shards), base, res)
			}
		})
	}
}

// Two genuinely different runs (two crashes against three) are located: the
// divergence names a boundary and one of the four digest layers.
func TestChaosDivergenceLocated(t *testing.T) {
	run := func(crashes int) *ChaosResult {
		res, err := Chaos(ChaosConfig{Kind: core.MFCG, Nodes: 32, OpsPerRank: 8, Crashes: crashes, Heal: true})
		if err != nil {
			t.Fatalf("crashes=%d: %v", crashes, err)
		}
		return res
	}
	err := armci.FirstDivergence(run(2).Digests, run(3).Digests)
	var de *armci.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("FirstDivergence = %v, want *armci.DivergenceError", err)
	}
	switch de.Layer {
	case "sim", "fabric", "faults", "armci":
	default:
		t.Fatalf("divergence %v names no layer", de)
	}
	if de.Index < 1 || de.At != armci.DigestEvery*sim.Time(de.Index) {
		t.Fatalf("divergence %v has an inconsistent boundary", de)
	}
}
