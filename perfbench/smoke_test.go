package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

// TestSmoke runs every declared workload briefly, untraced and traced,
// and checks that each declared metric is printed with its declared
// unit and that no request failed.
func TestSmoke(t *testing.T) {
	wls, e2e, layer := declared(t)
	for _, wl := range wls {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := e2e
				if traced {
					want = layer
				}
				res := runJSON(t, wl, 3, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("trace=%v: %s not printed", traced, name)
					} else if got.Unit != unit {
						t.Errorf("trace=%v: %s unit %q, declared %q", traced, name, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics printed, %d declared", traced, len(res.Metrics), len(want))
				}
				if traced && res.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate %g", res.Metrics["error_rate"].Value)
				}
			}
		})
	}
}
