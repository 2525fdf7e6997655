package main

import (
	"fmt"
	"io"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/runtime"
	"repro/internal/vm"
)

// bench is one run of one workload: its inputs, its oracle, and what it
// measured so far.
type bench struct {
	src     string
	window  time.Duration
	tr      *tracer // nil on an untraced run
	orc     *oracle
	workers int // worker VMs per engine besides the primary one

	// Requests checked against the oracle.
	attempted, failed int

	// Deploy lifecycle samples, one per deploy (seconds).
	setups, warmups, restarts []float64
	// Per traced deploy (milliseconds).
	fronts                       []frontendTimes
	newEngine, trigger           []float64
	jsSnap, jsEnc, jsDec, jsLoad []float64
	// Of the last deploy; every deploy of a run repeats them.
	profileReqs, jsBytes, staleFuncs int

	peakHeap uint64
}

// traceUnit returns the tracer for the n-th unit of work (a deploy or
// a serving round). A traced run traces every other unit, so that the
// untraced units in between measure what tracing costs.
func (b *bench) traceUnit(n int) *tracer {
	if n%2 == 0 {
		return b.tr
	}
	return nil
}

// sampleHeap records the Go heap in use; it is called at phase
// boundaries, never inside a timed request.
func (b *bench) sampleHeap() *goruntime.MemStats {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	b.peakHeap = max(b.peakHeap, ms.HeapInuse)
	return &ms
}

// tally accumulates the requests one client served.
type tally struct {
	lat      []float64 // µs per request
	cycles   uint64
	n        int
	failed   int
	longTail int
	// Filled only while traced: whether the request minted a live
	// translation or side-exited, split by its latency.
	mintLat, nomintLat []float64
	sideExitReqs       int
	watched            int
	// hostNS is the summed request time, for vm.ns_per_kcycle.
	hostNS int64
}

func (tl *tally) merge(o *tally) {
	tl.lat = append(tl.lat, o.lat...)
	tl.cycles += o.cycles
	tl.n += o.n
	tl.failed += o.failed
	tl.longTail += o.longTail
	tl.mintLat = append(tl.mintLat, o.mintLat...)
	tl.nomintLat = append(tl.nomintLat, o.nomintLat...)
	tl.sideExitReqs += o.sideExitReqs
	tl.watched += o.watched
	tl.hostNS += o.hostNS
}

// serve runs request r on worker v, checks it against the oracle and
// records its latency. With t non-nil it also records a span and
// watches the JIT counters around the request. It returns the latency.
func (tl *tally) serve(t *tracer, parent spanID, reqID int64, eng *core.Engine, v *vm.VM, orc *oracle, r req) time.Duration {
	var before jit.Stats
	if t != nil {
		before = eng.Stats()
	}
	id := t.begin("vm.request", parent, reqID)
	start := time.Now()
	cyc, got, err := serve(eng, v, r)
	d := time.Since(start)
	t.end(id)
	us := float64(d.Nanoseconds()) / 1e3
	tl.lat = append(tl.lat, us)
	tl.cycles += cyc
	tl.hostNS += d.Nanoseconds()
	tl.n++
	if r.fn == "long_tail" {
		tl.longTail++
	}
	if !orc.check(r, got, err) {
		tl.failed++
	}
	if t != nil {
		after := eng.Stats()
		tl.watched++
		if after.LiveTranslations > before.LiveTranslations {
			tl.mintLat = append(tl.mintLat, us)
		} else {
			tl.nomintLat = append(tl.nomintLat, us)
		}
		if after.SideExits > before.SideExits {
			tl.sideExitReqs++
		}
	}
	return d
}

// deployment is one engine brought up from source text and warmed.
type deployment struct {
	eng     *core.Engine
	workers []*vm.VM
	served  *tally    // requests served on eng
	stats   jit.Stats // eng's counters when serving ended
	heap    runtime.Heap
	alloc   uint64 // Go heap bytes allocated while serving
}

// deploy brings up one engine: it compiles the source and starts an
// engine with its workers (setup), serves stream from its start until
// the optimized publish (warmup) and tail requests more, snapshots and
// encodes the profile, restarts a fresh engine from the decoded
// snapshot (restart), and checks verify on the restarted engine.
// t is the tracer for this deploy (nil when untraced).
func (b *bench) deploy(t *tracer, stream []req, tail int, verify []req) (*deployment, error) {
	root := t.begin("bench.deploy", 0, 0)
	defer t.end(root)
	// Each timed phase starts from a collected heap, so that garbage
	// left by the previous deploy is not charged to this one.
	goruntime.GC()
	start := time.Now()
	u, ft, err := compileUnit(b.src, t, root)
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	ne := t.do("vm.new_engine", root, 0, func() { eng, err = newEngine(u) })
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	d := &deployment{eng: eng, served: &tally{}}
	for i := 0; i < b.workers; i++ {
		t.do("vm.new_worker", root, 0, func() { d.workers = append(d.workers, eng.NewWorker(io.Discard)) })
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	if t != nil {
		b.fronts = append(b.fronts, *ft)
		b.newEngine = append(b.newEngine, ne)
	}
	ms0 := b.sampleHeap()

	warmStart := time.Now()
	i := 0
	for ; !eng.VM.JIT.Optimized(); i++ {
		if i == len(stream) {
			return nil, fmt.Errorf("no optimized publish after %d requests", i)
		}
		lat := d.served.serve(t, root, int64(i), eng, eng.VM, b.orc, stream[i])
		if eng.VM.JIT.Optimized() && t != nil {
			b.trigger = append(b.trigger, float64(lat.Nanoseconds())/1e6)
		}
	}
	b.warmups = append(b.warmups, time.Since(warmStart).Seconds())
	b.profileReqs = i
	end := min(len(stream), i+tail)
	for ; i < end; i++ {
		d.served.serve(t, root, int64(i), eng, eng.VM, b.orc, stream[i])
	}
	d.stats = eng.Stats()
	d.heap = *eng.Heap()
	d.alloc = b.sampleHeap().TotalAlloc - ms0.TotalAlloc

	var snap *jumpstart.Snapshot
	var data []byte
	snapMS := t.do("jumpstart.snapshot", root, 0, func() { snap = eng.ProfileSnapshot() })
	encMS := t.do("jumpstart.encode", root, 0, func() { data = jumpstart.Encode(snap) })
	fresh, err := newEngine(u)
	if err != nil {
		return nil, fmt.Errorf("restart engine: %w", err)
	}
	goruntime.GC()
	restartStart := time.Now()
	var loaded jit.JumpstartResult
	decMS := t.do("jumpstart.decode", root, 0, func() { snap, err = jumpstart.Decode(data) })
	if err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	loadMS := t.do("jumpstart.load", root, 0, func() { loaded = fresh.LoadProfile(snap) })
	b.restarts = append(b.restarts, time.Since(restartStart).Seconds())
	if !fresh.VM.JIT.Optimized() {
		return nil, fmt.Errorf("restart from a %d-byte snapshot did not publish optimized code", len(data))
	}
	if t != nil {
		b.jsSnap = append(b.jsSnap, snapMS)
		b.jsEnc = append(b.jsEnc, encMS)
		b.jsDec = append(b.jsDec, decMS)
		b.jsLoad = append(b.jsLoad, loadMS)
	}
	b.jsBytes = len(data)
	b.staleFuncs = len(loaded.StaleFuncs)
	check := &tally{}
	for k, r := range verify {
		check.serve(nil, root, int64(k), fresh, fresh.VM, b.orc, r)
	}
	b.attempted += d.served.n + check.n
	b.failed += d.served.failed + check.failed
	b.sampleHeap()
	return d, nil
}
