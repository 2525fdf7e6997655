package main

import (
	"encoding/json"
	"io"
	"testing"
	"time"
)

// sharedJIT is why site_steady's guest costs may differ in the last
// digits between two runs with one seed.
const sharedJIT = "site_steady's two workers share one JIT: whichever worker reaches a self-filling " +
	"property inline cache or an unbound chain link first fills it, and the guest cost of the " +
	"requests around it depends on that order (differences are parts per million)"

// notRepeatable lists, per workload, the count metrics that may differ
// between two runs with one seed, and why. site_cold and type_churn
// serve from one thread and repeat exactly.
var notRepeatable = map[string]map[string]string{
	"site_steady": {
		"guest_cycles_per_req":          sharedJIT,
		"jit.optimized_cycles_per_req":  sharedJIT,
		"jit.live_cycles_per_req":       sharedJIT,
		"jit.lookups_per_req":           sharedJIT,
		"jit.machine_enters_per_req":    sharedJIT,
		"jit.bind_requests_per_req":     sharedJIT,
		"machine.chained_jumps_per_req": sharedJIT,
		"machine.chained_calls_per_req": sharedJIT,
		"workload.side_exit_req_share": "a request counts as side-exiting when the JIT's shared " +
			"side-exit counter ticks during it, which the other client's exits also do",
	},
}

// runJSON runs a workload briefly and decodes its result line.
func runJSON(t *testing.T, wl string, seed int64, traced bool) result {
	t.Helper()
	line, err := run(opts{workload: wl, seed: seed, window: 200 * time.Millisecond, trace: traced, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", wl, err)
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatalf("%s: bad result line %s: %v", wl, line, err)
	}
	return res
}

// TestDeterminism runs each workload twice with one seed: guest cycles,
// code bytes and every count-type layer metric must repeat exactly,
// apart from the metrics notRepeatable lists.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a := runJSON(t, wl, 7, traced)
				b := runJSON(t, wl, 7, traced)
				for name, va := range a.Metrics {
					if !countMetrics[name] {
						continue
					}
					vb := b.Metrics[name]
					if va.Value == vb.Value {
						continue
					}
					if why, ok := notRepeatable[wl][name]; ok {
						t.Logf("%s: %g then %g (not repeatable: %s)", name, va.Value, vb.Value, why)
					} else {
						t.Errorf("%s: %g then %g with the same seed", name, va.Value, vb.Value)
					}
				}
			}
		})
	}
}
