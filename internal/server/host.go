package server

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/perflab"
	"repro/internal/sentry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Calibration is the steady state of a fully warmed engine.
type Calibration struct {
	// CyclesPerReq is the mean cost of the timed steady-state requests.
	CyclesPerReq float64
	// Outputs holds every endpoint's steady-state output, the
	// reference that served requests are checked against.
	Outputs map[string]string
}

// Calibrate warms eng with 60 rounds of the endpoint suite, keeps a
// 61st round's outputs as the reference, and then times 40 requests
// whose endpoints next draws.
func Calibrate(eng *core.Engine, eps []workload.Endpoint, next func() string) (Calibration, error) {
	cal := Calibration{Outputs: map[string]string{}}
	for i := 0; i <= 60; i++ {
		for _, ep := range eps {
			_, out, err := perflab.RunEndpoint(eng, ep.Name)
			if err != nil {
				return Calibration{}, fmt.Errorf("calibrate %s: %w", ep.Name, err)
			}
			cal.Outputs[ep.Name] = out
		}
	}
	var cycles uint64
	const n = 40
	for i := 0; i < n; i++ {
		name := next()
		c, _, err := perflab.RunEndpoint(eng, name)
		if err != nil {
			return Calibration{}, fmt.Errorf("calibrate %s: %w", name, err)
		}
		cycles += c
	}
	cal.CyclesPerReq = float64(cycles) / n
	return cal, nil
}

// Transition is a set of lifecycle points a host reached during one
// simulated minute, as reported by Host.EndMinute.
type Transition uint8

const (
	// ProfilingDone: profiling translations exist and either the first
	// minute is over or the optimizer has already run.
	ProfilingDone Transition = 1 << iota
	// Optimized: the global retranslation published optimized code.
	Optimized
	// CacheFull: the code cache filled up.
	CacheFull
	// Fault: a translation fault was contained.
	Fault
	// Recycle: the code cache was recycled.
	Recycle
	// VerifyFinding: the sentry monitor found a corruption, a torn or
	// dangling link, or a divergence.
	VerifyFinding
	// Divergence: the monitor verified a new divergence this minute.
	// Unlike the others, which fire once per host, it fires every
	// minute that adds divergences.
	Divergence
)

// Host is one serving unit: an engine whose primary VM is worker 0,
// extra worker VMs that share its JIT, and an optional sentry monitor.
// A single server is one Host; a fleet is N of them.
type Host struct {
	Eng *core.Engine
	// JumpstartLoad reports the snapshot load when NewHost got one.
	JumpstartLoad jit.JumpstartResult

	workers []*vm.VM
	mon     *sentry.Monitor
	// warmCycles is the jumpstart load's cost, charged against worker
	// 0's budget in the next served minute.
	warmCycles uint64
	// minutes counts EndMinute calls; seen latches the one-shot
	// transitions; lastDiv is the divergence count already reported.
	minutes int
	seen    Transition
	lastDiv uint64
}

// NewHost wraps eng as a host with the given number of request workers
// (at least 1). verifySample > 0 attaches a sentry monitor seeded with
// seed that shadow-checks that fraction of requests. A non-nil snap is
// loaded after the monitor is attached, so its publishes are
// checksummed too.
func NewHost(eng *core.Engine, workers int, verifySample float64, seed int64, snap *jumpstart.Snapshot) (*Host, error) {
	h := &Host{Eng: eng, workers: []*vm.VM{eng.VM}}
	if verifySample > 0 {
		mon, err := sentry.New(sentry.Config{SampleRate: verifySample, Seed: seed}, eng.VM.JIT)
		if err != nil {
			return nil, err
		}
		h.mon = mon
	}
	if snap != nil {
		before := eng.Cycles()
		h.JumpstartLoad = eng.LoadProfile(snap)
		h.warmCycles = eng.Cycles() - before
	}
	for i := 1; i < workers; i++ {
		h.workers = append(h.workers, eng.NewWorker(io.Discard))
	}
	return h, nil
}

// ServeMinute runs one simulated minute: every worker, on its own
// goroutine, serves requests while it has served fewer than want and
// has spent less than budget cycles (worker 0's budget is reduced by
// any pending jumpstart cost). next(worker) picks each request's
// endpoint; hook, when non-nil, sees each request's output. It
// returns the requests served across all workers.
func (h *Host) ServeMinute(want float64, budget uint64, next func(worker int) string, hook func(name, out string)) (int, error) {
	served := make([]int, len(h.workers))
	errs := make([]error, len(h.workers))
	var wg sync.WaitGroup
	for i, v := range h.workers {
		b := budget
		if i == 0 {
			b -= min(b, h.warmCycles)
			h.warmCycles = 0
		}
		wg.Add(1)
		go func(i int, v *vm.VM, b uint64) {
			defer wg.Done()
			n := 0
			start := v.Meter.Cycles
			for float64(n) < want && v.Meter.Cycles-start < b {
				name := next(i)
				_, out, err := perflab.RunEndpointVM(v, name)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", name, err)
					break
				}
				if hook != nil {
					hook(name, out)
				}
				h.mon.Observe(name, out)
				n++
			}
			served[i] = n
		}(i, v, b)
	}
	wg.Wait()
	total := 0
	for i, n := range served {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += n
	}
	return total, nil
}

// EndMinute closes a served minute: the monitor audits one chunk of
// the code cache and drains its pending shadow comparisons (so the
// verification counters do not depend on comparator timing), then the
// lifecycle points first reached this minute are returned.
func (h *Host) EndMinute() Transition {
	var t Transition
	latch := func(x Transition, reached bool) {
		if reached && h.seen&x == 0 {
			h.seen |= x
			t |= x
		}
	}
	if h.mon != nil {
		h.mon.AuditStep(0)
		h.mon.Drain()
	}
	st := h.Eng.Stats()
	latch(ProfilingDone, st.ProfilingTranslations > 0 && (h.minutes >= 1 || st.OptimizeRuns > 0))
	latch(Optimized, st.OptimizeRuns > 0)
	latch(CacheFull, st.CacheFullEvents > 0)
	latch(Fault, st.TransFaults > 0)
	latch(Recycle, st.RecycleRuns > 0)
	if h.mon != nil {
		vs := h.mon.Stats()
		latch(VerifyFinding, vs.Corruptions+vs.TornLinks+vs.DanglingLinks+vs.Divergences > 0)
		if vs.Divergences > h.lastDiv {
			h.lastDiv = vs.Divergences
			t |= Divergence
		}
	}
	h.minutes++
	return t
}

// CodeBytes is the host's resident JITed code.
func (h *Host) CodeBytes() uint64 { return codeBytes(h.Eng.Stats()) }

func codeBytes(st jit.Stats) uint64 {
	return st.BytesProfiling + st.BytesOptimized + st.BytesLive
}

// Close drains and shuts down the host's monitor and returns its final
// counters (zero without a monitor). Closing twice is harmless.
func (h *Host) Close() sentry.Stats {
	if h.mon == nil {
		return sentry.Stats{}
	}
	h.mon.Drain()
	s := h.mon.Stats()
	h.mon.Close()
	h.mon = nil
	return s
}
