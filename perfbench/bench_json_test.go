package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json names exactly the workloads and metrics the benchmark
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %d workloads", ws, len(workloads))
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if len(layers) != len(layerNames) {
		t.Fatalf("per_layer %v, benchmark %v", layers, layerNames)
	}
	for i := range layers {
		if layers[i] != layerNames[i] {
			t.Errorf("per_layer[%d] = %s, benchmark prints %s", i, layers[i], layerNames[i])
		}
	}
	want := map[string]bool{}
	for _, m := range e2eNames {
		want[m] = true
	}
	for _, m := range spec.EndToEnd {
		if !want[m.Name] {
			t.Errorf("end_to_end %s is not printed", m.Name)
		}
		delete(want, m.Name)
	}
	for m := range want {
		t.Errorf("%s is printed but not in end_to_end", m)
	}
}
