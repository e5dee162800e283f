package armci

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// Recording digests must not perturb a run: a heal-armed runtime under node
// crashes (membership probes, retries, healed reroutes all active) ends with
// the same Stats and the same memory whether or not it records, and the
// recording run digests several boundaries.
func TestDigestPassivity(t *testing.T) {
	const nodes = 16
	run := func(record bool) (*Runtime, Stats) {
		_, rt := healedRuntime(t, core.MFCG, nodes, 1, "node:5@t=500us@for=1500us,node:10@t=1200us", nil)
		rt.Alloc("mem", 8*nodes)
		if record {
			rt.RecordDigests()
		}
		runAll(t, rt, func(r *Rank) {
			if r.Rank() == 5 || r.Rank() == 10 {
				r.Sleep(4 * sim.Millisecond)
				return
			}
			for i := 0; i < 20; i++ {
				target := (r.Rank()*7 + i*3) % nodes
				h := r.NbAcc(target, "mem", 8*r.Rank(), 1.0, []float64{1})
				r.Wait(h)
				r.Sleep(150 * sim.Microsecond)
			}
		})
		return rt, rt.Stats()
	}
	plain, plainStats := run(false)
	recorded, recordedStats := run(true)
	if plainStats.Confirms == 0 || plainStats.Retries == 0 {
		t.Fatalf("workload never exercised detection and retries: %+v", plainStats)
	}
	if n := len(recorded.Digests()); n < 2 {
		t.Fatalf("recording run digested %d boundaries, want >= 2", n)
	}
	if plain.Digests() != nil {
		t.Fatal("non-recording run holds digests")
	}
	if !reflect.DeepEqual(plainStats, recordedStats) {
		t.Fatalf("recording perturbed Stats:\nplain    %+v\nrecorded %+v", plainStats, recordedStats)
	}
	for rank := 0; rank < nodes; rank++ {
		if !bytes.Equal(plain.Memory(rank, "mem"), recorded.Memory(rank, "mem")) {
			t.Fatalf("recording perturbed rank %d's memory", rank)
		}
	}
}

func TestFirstDivergence(t *testing.T) {
	at := func(index int64, layers ...string) Digest {
		d := Digest{Index: index, At: sim.Time(index) * DigestEvery}
		for i := range d.Layers {
			d.Layers[i] = []byte{byte(index)}
		}
		for _, l := range layers {
			for i, name := range digestLayers {
				if name == l {
					d.Layers[i] = []byte("changed")
				}
			}
		}
		return d
	}
	base := []Digest{at(1), at(2), at(3)}
	for _, tc := range []struct {
		name string
		b    []Digest
		want *DivergenceError // nil: no divergence
	}{
		{"equal", []Digest{at(1), at(2), at(3)}, nil},
		{"fabric at boundary 2", []Digest{at(1), at(2, "fabric"), at(3, "sim")},
			&DivergenceError{Index: 2, At: 2 * DigestEvery, Layer: "fabric"}},
		{"armci at boundary 3", []Digest{at(1), at(2), at(3, "armci")},
			&DivergenceError{Index: 3, At: 3 * DigestEvery, Layer: "armci"}},
		{"first layer in order wins", []Digest{at(1, "armci", "faults"), at(2), at(3)},
			&DivergenceError{Index: 1, At: DigestEvery, Layer: "faults"}},
		{"shorter", []Digest{at(1), at(2)},
			&DivergenceError{Index: 3, At: 3 * DigestEvery, Layer: "boundary"}},
		{"skipped boundary", []Digest{at(1), at(3)},
			&DivergenceError{Index: 2, At: 2 * DigestEvery, Layer: "boundary"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, args := range [][2][]Digest{{base, tc.b}, {tc.b, base}} {
				err := FirstDivergence(args[0], args[1])
				if tc.want == nil {
					if err != nil {
						t.Fatalf("want no divergence, got %v", err)
					}
					continue
				}
				var de *DivergenceError
				if !errors.As(err, &de) || *de != *tc.want {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
			}
		})
	}
}
