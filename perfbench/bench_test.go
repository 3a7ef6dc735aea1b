package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// repeatable is what must come out identical from two runs at one seed:
// the count and ratio per-layer metrics, and every operation's
// fingerprint, which holds its verdict digest.
type repeatable struct {
	counts map[string]float64
	prints map[string][]string
}

func tracedOutputs(t *testing.T, name string) repeatable {
	t.Helper()
	w, err := newWorkload(name, pinnedSeeds[0])
	if err != nil {
		t.Fatal(err)
	}
	v := &verifier{w: w, first: map[string][]string{}}
	run, err := runTraced(w, v, name)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed > 0 {
		t.Fatal(v.problems)
	}
	vals, err := run.layerValues(w)
	if err != nil {
		t.Fatal(err)
	}
	out := repeatable{counts: map[string]float64{}, prints: v.first}
	for _, l := range layers {
		if l.unit == "count" || l.unit == "ratio" {
			out.counts[l.name] = vals[l.name]
		}
	}
	return out
}

// TestExactRepeat runs each workload twice at the same seed under the
// tracer: the count metrics and the verdict digests must be identical, so
// later changes can cite counts as evidence.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice (about two minutes)")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := tracedOutputs(t, name), tracedOutputs(t, name)
			for m, va := range a.counts {
				if vb := b.counts[m]; va != vb {
					t.Errorf("%s: %v then %v", m, va, vb)
				}
			}
			for c, pa := range a.prints {
				if pb := b.prints[c]; !slices.Equal(pa, pb) {
					t.Errorf("%s outputs:\n%q\nthen\n%q", c, pa, pb)
				}
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the program: the workloads it
// names exist, and its per-layer metrics are exactly the ones a traced run
// reports, in order, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		if _, err := newWorkload(name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layers))
	}
	for i, l := range layers {
		if got := spec.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit+" "+m.Better)
	}
	if want := []string{"wall_s s lower", "setup_s s lower", "peak_rss_mb MB lower"}; !slices.Equal(e2e, want) {
		t.Errorf("end_to_end %v, want %v", e2e, want)
	}
}
