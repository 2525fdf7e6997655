// Command perfbench is the repository's benchmark. It drives the engine
// from outside through its public API, with jit.DefaultConfig
// unchanged, on one of three workloads:
//
//   - site_steady: the combined site unit, warmed to the optimized
//     publish, then a long closed-loop window with two clients, one
//     worker VM each, on one shared JIT.
//   - site_cold: repeated deploys of the same site: compile, serve the
//     Zipf stream through the optimized publish, snapshot the profile,
//     restart a fresh engine from it.
//   - type_churn: repeated deploys of a seeded generated unit whose
//     argument types drift after the optimized publish.
//
// Every request is checked against an interpreter-only engine. An
// untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) records spans around each call into the engine's layers,
// replays the backend on the published regions, prints the per-layer
// metrics and writes the spans to <out>/trace/. The last line of
// standard output is the JSON result.
//
// Usage:
//
//	go run . -workload site_steady -seed 1 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// opts are the run's inputs.
type opts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string
}

var workloads = map[string]func(opts) (*bench, *window, error){
	"site_steady": runSiteSteady,
	"site_cold":   runSiteCold,
	"type_churn":  runTypeChurn,
}

func main() {
	var o opts
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "site_steady", "workload: site_steady, site_cold or type_churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run printing per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory the span file is written under")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	line, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload, prints a human-readable summary to out and
// returns the JSON result line.
func run(o opts, out io.Writer) ([]byte, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	b, w, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rep := report{}
	set := endToEnd
	if o.trace {
		set = perLayer
		if err := layerMetrics(b, w, rep); err != nil {
			return nil, err
		}
	} else if err := endToEndMetrics(b, w, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.window.Seconds(), o.trace)
	fmt.Fprintf(out, "requests attempted=%d failed=%d error_rate=%g\n", b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	fmt.Fprintf(out, "deploys=%d setup_s max=%.4f warmup_s max=%.4f restart_s max=%.4f\n",
		len(b.setups), quantile(b.setups, 1), quantile(b.warmups, 1), quantile(b.restarts, 1))
	q := tailQuantile(len(w.all.lat))
	fmt.Fprintf(out, "latency samples=%d p50=%.1fus p%g=%.1fus\n", len(w.all.lat), median(w.all.lat), q*100, quantile(w.all.lat, q))
	if o.trace {
		self := b.tr.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(out, "self_ms %-10s %.3f\n", l, self[l])
		}
		fmt.Fprintf(out, "trace overhead %.2f%%\n", w.overheadPct)
		path := filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := b.tr.write(path, self); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans=%d written to %s\n", len(b.tr.spans), path)
	}
	return rep.encode(set, b.failed == 0, b.attempted, b.failed)
}
