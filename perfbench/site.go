package main

import (
	"sync"
	"time"

	"repro/internal/jit"
	"repro/internal/runtime"
	"repro/internal/workload"
)

const (
	// siteUsers is the simulated user population behind the Zipf
	// stream (only endpoint choice reaches the engine).
	siteUsers = 100000
	// siteStreamLen bounds a deploy's stream: the optimized publish
	// fires after a few dozen requests, far inside it.
	siteStreamLen = 2000
	// siteTail is how many Zipf requests a site_cold deploy serves
	// after the warmup pass. Each deploy has ten slow first-hit
	// requests (2 ms to 100 ms, the trigger request among them); 600
	// requests a deploy put the tail percentile well inside the body of
	// the latency distribution rather than in the gap below those ten,
	// where it would jump between runs.
	siteTail = 586
	// minDeploys is the least number of deploys a run makes, so that
	// setup_s, warmup_s and restart_s are medians of several samples.
	minDeploys = 7
	// steadyDeploys is how many deploys site_steady makes before its
	// window; they serve only the warmup pass (no tail), so that the
	// lifecycle medians cost little of the run.
	steadyDeploys = 11
	// steadyClients is site_steady's closed-loop client count, one
	// worker VM each on the shared JIT.
	steadyClients = 2
	// settleReqs is what each steady worker serves alone before the
	// window, so that live translations for rarely hit endpoints are
	// minted in a fixed order rather than racing in the window.
	settleReqs = 300
	// roundReqs is what each client serves per round; clients meet at
	// a barrier between rounds.
	roundReqs = 400
	// acctRounds is the accounting prefix of the window: guest cycles,
	// code bytes and the count metrics cover exactly these rounds.
	acctRounds = 4
)

// site is the combined site unit and its traffic model.
type site struct {
	src     string
	traffic *workload.Traffic
	verify  []req // one request per endpoint
}

func newSite() *site {
	src, eps := workload.Combined()
	s := &site{src: src, traffic: workload.NewTraffic(eps, siteUsers, 0, 0)}
	for _, ep := range eps {
		s.verify = append(s.verify, req{fn: ep.Name})
	}
	return s
}

// stream is a deploy's request stream: one warmup request to each
// endpoint in popularity order, as a deploy sends before taking
// traffic, then n requests drawn from the seeded Zipf stream.
//
// The warmup pass fixes what is profiled before the global trigger.
// Without it the first ~15 Zipf draws decide whether the 150-function
// long tail is profiled, and seeds fall into two modes (warmup 0.05 s
// or 0.27 s, 2.5x the code bytes) too far apart for any bound.
func (s *site) stream(seed int64, n int) []req {
	out := make([]req, 0, len(s.verify)+n)
	for _, ep := range s.traffic.Endpoints() {
		out = append(out, req{fn: ep.Name})
	}
	st := s.traffic.NewStream(seed)
	for i := 0; i < n; i++ {
		_, ep := st.Next()
		out = append(out, req{fn: ep.Name})
	}
	return out
}

// newBench starts a run on the site: its oracle, with every endpoint's
// reference computed.
func (s *site) newBench(o opts, workers int) (*bench, error) {
	orc, err := newOracle(s.src)
	if err != nil {
		return nil, err
	}
	b := &bench{src: s.src, window: o.window, orc: orc, workers: workers}
	if o.trace {
		b.tr = newTracer()
	}
	// Every endpoint takes no arguments, so one reference each covers
	// every request of every stream.
	if err := orc.prime(b.tr, 0, s.verify); err != nil {
		return nil, err
	}
	return b, nil
}

// runSiteCold deploys the site again and again for the whole window.
func runSiteCold(o opts) (*bench, *window, error) {
	s := newSite()
	b, err := s.newBench(o, 0)
	if err != nil {
		return nil, nil, err
	}
	w, err := b.deployLoop(s.stream(o.seed, siteStreamLen), siteTail, s.verify)
	return b, w, err
}

// runSiteSteady deploys the site several times, then serves a long
// closed-loop window on the last deploy's engine with two clients.
func runSiteSteady(o opts) (*bench, *window, error) {
	s := newSite()
	b, err := s.newBench(o, steadyClients)
	if err != nil {
		return nil, nil, err
	}
	stream := s.stream(o.seed, siteStreamLen)
	var d *deployment
	for n := 0; n < steadyDeploys; n++ {
		if d, err = b.deploy(b.traceUnit(n), stream, 0, s.verify); err != nil {
			return nil, nil, err
		}
	}
	eng := d.eng

	// Each client draws from its own seeded stream, so the requests a
	// worker serves do not depend on how the two interleave.
	clients := make([]*workload.Stream, steadyClients)
	for c := range clients {
		clients[c] = s.traffic.NewStream(o.seed*1000 + 1 + int64(c))
	}
	next := func(c int) req {
		_, ep := clients[c].Next()
		return req{fn: ep.Name}
	}
	settle := &tally{}
	for c, v := range d.workers {
		for i := 0; i < settleReqs; i++ {
			settle.serve(nil, 0, 0, eng, v, b.orc, next(c))
		}
	}
	b.attempted += settle.n
	b.failed += settle.failed

	w := &window{engine: eng, acct: &tally{}, all: &tally{}}
	heapAt := func() runtime.Heap {
		var h runtime.Heap
		for _, v := range d.workers {
			h.IncRefs += v.Heap.IncRefs
			h.DecRefs += v.Heap.DecRefs
			h.CowCopies += v.Heap.CowCopies
			h.Destructs += v.Heap.Destructs
		}
		return h
	}
	heap0 := heapAt()
	w.st0 = eng.Stats()
	w.ms0 = b.sampleHeap()
	start := time.Now()
	var untracedLat, tracedLat []float64
	for r := 0; r < acctRounds || time.Since(start) < b.window; r++ {
		t := b.traceUnit(r)
		root := t.begin("bench.round", 0, int64(r))
		tallies := make([]*tally, steadyClients)
		batches := make([][]req, steadyClients)
		for c := range batches {
			for i := 0; i < roundReqs; i++ {
				batches[c] = append(batches[c], next(c))
			}
			if r == 0 {
				w.interpReqs = append(w.interpReqs, batches[c]...)
			}
		}
		var wg sync.WaitGroup
		for c := range tallies {
			tallies[c] = &tally{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, rq := range batches[c] {
					reqID := int64((r*steadyClients+c)*roundReqs + i)
					tallies[c].serve(t, root, reqID, eng, d.workers[c], b.orc, rq)
				}
			}(c)
		}
		wg.Wait()
		t.end(root)
		for _, tl := range tallies {
			w.all.merge(tl)
			if r < acctRounds {
				w.acct.merge(tl)
			}
			if t != nil {
				tracedLat = append(tracedLat, tl.lat...)
			} else {
				untracedLat = append(untracedLat, tl.lat...)
			}
		}
		if r == acctRounds-1 {
			w.st1 = eng.Stats()
			w.codeBytes = codeBytes(w.st1)
			h := heapAt()
			w.heap = runtime.Heap{
				IncRefs:   h.IncRefs - heap0.IncRefs,
				DecRefs:   h.DecRefs - heap0.DecRefs,
				CowCopies: h.CowCopies - heap0.CowCopies,
				Destructs: h.Destructs - heap0.Destructs,
			}
		}
		b.sampleHeap()
	}
	w.wall = time.Since(start)
	w.ms1 = b.sampleHeap()
	w.allocPerReq = float64(w.ms1.TotalAlloc-w.ms0.TotalAlloc) / float64(w.all.n)
	w.overheadPct = (ratio(median(tracedLat), median(untracedLat)) - 1) * 100
	b.attempted += w.all.n
	b.failed += w.all.failed
	return b, w, nil
}

// codeBytes is the JITed code footprint the engine reports.
func codeBytes(st jit.Stats) uint64 {
	return st.BytesOptimized + st.BytesLive + st.BytesProfiling
}

// deployLoop deploys until the window has passed, at least minDeploys
// times and until minSamples requests are timed. The first deploy is
// the accounting window: every deploy of a run serves the same stream
// from a fresh engine, so the first stands for all of them in the
// count metrics.
func (b *bench) deployLoop(stream []req, tail int, verify []req) (*window, error) {
	w := &window{all: &tally{}}
	var allocs []float64
	var deployMS [2][]float64 // untraced, traced deploy durations
	ms0 := b.sampleHeap()
	start := time.Now()
	for n := 0; n < minDeploys || len(w.all.lat) < minSamples || time.Since(start) < b.window; n++ {
		t := b.traceUnit(n)
		dStart := time.Now()
		d, err := b.deploy(t, stream, tail, verify)
		if err != nil {
			return nil, err
		}
		traced := 0
		if t != nil {
			traced = 1
		}
		deployMS[traced] = append(deployMS[traced], float64(time.Since(dStart).Nanoseconds())/1e6)
		allocs = append(allocs, float64(d.alloc)/float64(d.served.n))
		w.all.merge(d.served)
		if n == 0 {
			w.engine = d.eng
			w.acct = d.served
			w.st1 = d.stats
			w.heap = d.heap
			w.codeBytes = codeBytes(d.stats)
			w.interpReqs = stream[:d.served.n]
		}
	}
	w.ms0 = ms0
	w.ms1 = b.sampleHeap()
	// Deploys are single-threaded, so the summed request time is the
	// serving wall time.
	w.wall = time.Duration(w.all.hostNS)
	w.allocPerReq = median(allocs)
	w.overheadPct = (ratio(median(deployMS[1]), median(deployMS[0])) - 1) * 100
	return w, nil
}
