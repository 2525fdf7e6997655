package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/mcode"
	"repro/internal/perflab"
	"repro/internal/sentry"
	"repro/internal/workload"
)

// VerifyResult reports the self-verification experiment (DESIGN.md
// §15): injected code-cache corruptions must be detected by the
// integrity auditor or the sampled shadow execution, divergences must
// bisect to a quarantined culprit, final outputs must be bit-identical
// to the JIT-disabled reference, and steady-state verification
// overhead at production sampling must stay small.
type VerifyResult struct {
	Seed int64

	// Code-byte corruption leg: silent tamper injections at machine
	// entry, detected by the checksum auditor.
	CorruptFired    uint64
	CorruptDetected uint64
	// CorruptRepaired latches when, after the audit pass and a remint
	// round, no tampered translation remains published and a fresh
	// audit is clean.
	CorruptRepaired bool

	// Torn-link leg: future-epoch link writes injected during
	// re-binding; the auditor (or the execution path's stale-link
	// bounce) must leave zero future-epoch links behind.
	TornFired    uint64
	TornDetected uint64
	TornResidual int

	// Stale-IC leg: inline-cache tables installed at a stale epoch;
	// the execution path's epoch guard must drop them.
	StaleICFired   uint64
	StaleICDropped uint64

	// Shadow-execution leg: with 100% sampling and a fresh silent
	// corruption, the comparator must observe a divergence, bisect
	// it, and quarantine the culprit translation.
	ShadowDivergences uint64
	ShadowQuarantined uint64
	BisectionReplays  uint64
	CulpritFunc       int
	CulpritPC         int

	// OutputsMatch reports that after every leg's repairs, each
	// endpoint's output was bit-identical to the JIT-disabled
	// reference.
	OutputsMatch bool

	// Overhead leg: wall-clock per request without a monitor vs with
	// one at SampleRate sampling plus per-chunk audits (best of
	// OverheadTrials trials each).
	SampleRate       float64
	BaselineNsPerReq float64
	VerifiedNsPerReq float64
	OverheadPct      float64

	// Monitor is the verification monitor's final counter snapshot
	// over the fault legs.
	Monitor sentry.Stats
}

// overheadRounds / overheadSlice size the wall-clock leg: per round,
// each engine serves one slice back-to-back and contributes one
// paired timing ratio.
const (
	overheadRounds = 18
	overheadSlice  = 100
)

// Verify runs the self-verification experiment.
func Verify(pc perflab.Config, seed int64) (*VerifyResult, error) {
	res := &VerifyResult{Seed: seed, SampleRate: 0.01, CulpritFunc: -1, CulpritPC: -1}
	rounds := pc.WarmupRequests + pc.MeasureRequests
	if rounds == 0 {
		rounds = 20
	}

	// JIT-disabled reference outputs: the fidelity oracle every leg's
	// post-repair traffic is compared against.
	interpCfg := defaultCfg()
	interpCfg.Mode = jit.ModeInterp
	ref, err := perflab.Measure(interpCfg, pc)
	if err != nil {
		return nil, fmt.Errorf("verify interp reference: %w", err)
	}
	refOut := map[string]string{}
	for _, ep := range ref.Endpoints {
		refOut[ep.Name] = ep.Output
	}

	// One fault-injected engine carries the corruption legs. Rates
	// stay zero: every injection is forced, so each leg controls
	// exactly when its corruption lands.
	cfg := defaultCfg()
	inj := faultinject.New(faultinject.Config{Seed: seed})
	cfg.Faults = inj
	eng, eps, err := perflab.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("verify engine: %w", err)
	}
	j := eng.VM.JIT
	runRound := func(check bool) error {
		for _, ep := range eps {
			_, out, err := perflab.RunEndpoint(eng, ep.Name)
			if err != nil {
				return fmt.Errorf("verify %s: %w", ep.Name, err)
			}
			if check && out != refOut[ep.Name] {
				return fmt.Errorf("verify %s: output diverged from interp reference", ep.Name)
			}
		}
		return nil
	}
	// Warm to steady state (optimized code published) before
	// attaching the monitor.
	if err := perflab.WarmToOptimized(eng, eps, func(name, out string) error {
		if out != refOut[name] {
			return fmt.Errorf("%s: output diverged from interp reference", name)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("verify warmup: %w", err)
	}
	mon, err := sentry.New(sentry.Config{SampleRate: 1, Seed: seed}, j)
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	if mon.Audit() != 0 {
		return nil, fmt.Errorf("verify: audit of a clean warm cache found corruptions")
	}

	// --- Leg 1: silent code-byte corruption, caught by checksums ---
	inj.ForceNext(faultinject.CodeCorrupt, 3)
	if err := runRound(false); err != nil { // plants tampers; outputs may be wrong here
		return nil, err
	}
	res.CorruptFired = inj.Fired(faultinject.CodeCorrupt)
	before := mon.Stats()
	mon.Audit()
	res.CorruptDetected = mon.Stats().Corruptions - before.Corruptions
	// Remint and verify fidelity is restored bit-for-bit.
	for r := 0; r < rounds; r++ {
		if err := runRound(true); err != nil {
			return nil, err
		}
	}
	clean := true
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Code.Tampered() != 0 {
			clean = false
		}
	})
	res.CorruptRepaired = clean && mon.Audit() == 0

	// invalidateOne unpublishes the smallest currently-published
	// (FuncID, PC) key. Picking a live key matters: invalidating an
	// already-unpublished key removes nothing and therefore does NOT
	// bump the epoch or sweep links.
	invalidateOne := func() bool {
		var victim *jit.Translation
		j.ForEachTranslation(func(tr *jit.Translation) {
			if victim == nil || tr.FuncID < victim.FuncID ||
				(tr.FuncID == victim.FuncID && tr.PC < victim.PC) {
				victim = tr
			}
		})
		return victim != nil && j.Invalidate(victim.FuncID, victim.PC, false) > 0
	}

	// --- Leg 2: torn link writes during re-binding ---
	// An invalidation sweeps every link, so the following traffic
	// re-binds sites through Smash — and the forced injections tear
	// those writes (future-epoch stamps). The execution path's epoch
	// guard usually bounces a torn link before the auditor's turn, so
	// a future-epoch link is also planted directly to prove the
	// auditor detects and clears one that persists.
	inj.ForceNext(faultinject.TornLink, 2)
	invalidateOne()
	tornBase := mon.Stats().TornLinks
	for r := 0; r < rounds && inj.Fired(faultinject.TornLink) < 2; r++ {
		if err := runRound(true); err != nil {
			return nil, err
		}
		mon.Audit()
	}
	var planted *jit.Translation
	j.ForEachTranslation(func(tr *jit.Translation) {
		if planted != nil {
			return
		}
		tr.Code.StoreLink(0, &mcode.Link{Epoch: j.Epoch() + 1, Target: tr})
		if tr.Code.LoadLink(0) != nil {
			planted = tr
		}
	})
	mon.Audit()
	res.TornFired = inj.Fired(faultinject.TornLink)
	res.TornDetected = mon.Stats().TornLinks - tornBase
	res.TornResidual = countFutureLinks(j, j.Epoch())
	if planted != nil && res.TornDetected == 0 {
		return nil, fmt.Errorf("verify: auditor missed a planted torn link")
	}

	// --- Leg 3: stale-epoch inline-cache tables ---
	// The epoch bump sweeps IC links too, so traffic rebuilds the
	// tables — and the forced injections install them one epoch
	// behind, where the next probe's guard must drop them.
	inj.ForceNext(faultinject.StaleIC, 2)
	invalidateOne()
	staleBase := eng.Stats().PropICStale
	for r := 0; r < rounds; r++ {
		if err := runRound(true); err != nil {
			return nil, err
		}
	}
	res.StaleICFired = inj.Fired(faultinject.StaleIC)
	res.StaleICDropped = eng.Stats().PropICStale - staleBase

	// --- Leg 4: shadow execution catches silent corruption and
	// bisects it to a quarantined culprit ---
	// Tamper every published translation (the CodeCorrupt mechanism,
	// applied cache-wide): the replay leg of each sampled comparison
	// executes the tampered code, so the divergence surfaces even
	// where the primary output happens to survive.
	j.ForEachTranslation(func(tr *jit.Translation) { tr.Code.InjectTamper(0x11) })
	for _, ep := range eps {
		_, out, err := perflab.RunEndpoint(eng, ep.Name)
		if err != nil {
			return nil, fmt.Errorf("verify shadow %s: %w", ep.Name, err)
		}
		mon.Observe(ep.Name, out)
	}
	mon.Drain()
	after := mon.Stats()
	res.ShadowDivergences = after.Divergences
	res.ShadowQuarantined = after.Quarantined
	res.BisectionReplays = after.Replays
	for _, r := range mon.Reports() {
		if r.Quarantined {
			res.CulpritFunc, res.CulpritPC = r.CulpritFunc, r.CulpritPC
			break
		}
	}
	// Repair whatever the bisection left latched and verify final
	// fidelity against the interpreter.
	mon.Audit()
	res.OutputsMatch = true
	for r := 0; r < rounds; r++ {
		for _, ep := range eps {
			_, out, err := perflab.RunEndpoint(eng, ep.Name)
			if err != nil {
				return nil, fmt.Errorf("verify recovery %s: %w", ep.Name, err)
			}
			if out != refOut[ep.Name] {
				res.OutputsMatch = false
			}
		}
	}
	res.Monitor = mon.Stats()

	// --- Leg 5: steady-state overhead at production sampling ---
	if err := measureOverhead(res, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// countFutureLinks scans every published link slab for future-epoch
// (torn) links.
func countFutureLinks(j *jit.JIT, epoch uint64) int {
	n := 0
	j.ForEachTranslation(func(tr *jit.Translation) {
		tr.Code.ForEachLink(func(_ int, l *mcode.Link) {
			if l.Epoch > epoch {
				n++
			}
		})
	})
	return n
}

// measureOverhead compares wall-clock per request on two warmed
// fault-free engines — one bare, one with a monitor at res.SampleRate
// sampling plus one audit chunk every 100 requests (mirroring the
// server's cadence). The engines alternate short slices and the
// overhead is the median of the per-round paired ratios: on a shared
// host, ambient noise runs several percent with multi-second dwell —
// larger and longer-lived than the true overhead — so adjacent slices
// see the same ambient conditions and the ratio cancels them, while
// the median discards rounds a scheduling spike lands in. A
// whole-run or min-of-N comparison measures the scheduler, not the
// monitor.
func measureOverhead(res *VerifyResult, seed int64) error {
	warm := func() (*core.Engine, []workload.Endpoint, error) {
		eng, eps, err := perflab.NewEngine(defaultCfg())
		if err != nil {
			return nil, nil, err
		}
		return eng, eps, perflab.WarmToOptimized(eng, eps, nil)
	}
	engA, epsA, err := warm()
	if err != nil {
		return err
	}
	engB, epsB, err := warm()
	if err != nil {
		return err
	}
	mon, err := sentry.New(sentry.Config{SampleRate: res.SampleRate, Seed: seed}, engB.VM.JIT)
	if err != nil {
		return err
	}
	defer mon.Close()

	var seqA, seqB int
	slice := func(eng *core.Engine, eps []workload.Endpoint, m *sentry.Monitor, seq *int) (float64, error) {
		start := time.Now()
		for i := 0; i < overheadSlice; i++ {
			ep := eps[*seq%len(eps)]
			*seq++
			_, out, err := perflab.RunEndpoint(eng, ep.Name)
			if err != nil {
				return 0, err
			}
			if m != nil {
				// The timed region covers what the serving loop pays:
				// the sampling decision, queue handoff, audit chunks,
				// and any CPU the comparator steals concurrently.
				m.Observe(ep.Name, out)
				if *seq%100 == 99 {
					m.AuditStep(0)
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / overheadSlice, nil
	}
	ratios := make([]float64, 0, overheadRounds)
	var baseSum, verSum float64
	for t := 0; t < overheadRounds; t++ {
		a, err := slice(engA, epsA, nil, &seqA)
		if err != nil {
			return err
		}
		b, err := slice(engB, epsB, mon, &seqB)
		if err != nil {
			return err
		}
		baseSum += a
		verSum += b
		ratios = append(ratios, b/a)
	}
	mon.Drain()
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	res.BaselineNsPerReq = baseSum / overheadRounds
	res.VerifiedNsPerReq = res.BaselineNsPerReq * med
	res.OverheadPct = (med - 1) * 100
	return nil
}

// GateErr reports which acceptance gate the result violates, nil when
// all hold: every injected corruption class detected (checksum audit,
// link audit, or epoch guard), the shadow sampler caught and
// quarantined a culprit, outputs ended bit-identical to the
// interpreter, and 1% sampling cost at most 5% wall-clock.
func (r *VerifyResult) GateErr() error {
	if r.CorruptFired == 0 || r.CorruptDetected == 0 || !r.CorruptRepaired {
		return fmt.Errorf("verify gate: code corruption not detected/repaired (fired %d, detected %d, repaired %v)",
			r.CorruptFired, r.CorruptDetected, r.CorruptRepaired)
	}
	if r.TornFired == 0 || r.TornResidual != 0 {
		return fmt.Errorf("verify gate: torn links not neutralized (fired %d, detected %d, residual %d)",
			r.TornFired, r.TornDetected, r.TornResidual)
	}
	if r.StaleICFired == 0 || r.StaleICDropped == 0 {
		return fmt.Errorf("verify gate: stale ICs not dropped (fired %d, dropped %d)",
			r.StaleICFired, r.StaleICDropped)
	}
	if r.ShadowDivergences == 0 || r.ShadowQuarantined == 0 {
		return fmt.Errorf("verify gate: shadow sampler missed the divergence (divergences %d, quarantined %d)",
			r.ShadowDivergences, r.ShadowQuarantined)
	}
	if !r.OutputsMatch {
		return fmt.Errorf("verify gate: final outputs differ from the interpreter reference")
	}
	if r.OverheadPct > 5 {
		return fmt.Errorf("verify gate: %.2f%% overhead at %.0f%% sampling (limit 5%%)",
			r.OverheadPct, r.SampleRate*100)
	}
	return nil
}

// ReportVerify renders the experiment.
func ReportVerify(w io.Writer, r *VerifyResult) {
	fmt.Fprintf(w, "Self-verification — sentinels, shadow execution, bisection (seed %d)\n", r.Seed)
	fmt.Fprintf(w, "code corruption: %d injected, %d caught by checksum audit, repaired=%v\n",
		r.CorruptFired, r.CorruptDetected, r.CorruptRepaired)
	fmt.Fprintf(w, "torn links:      %d injected, %d caught by link audit, %d residual\n",
		r.TornFired, r.TornDetected, r.TornResidual)
	fmt.Fprintf(w, "stale ICs:       %d injected, %d dropped by the epoch guard\n",
		r.StaleICFired, r.StaleICDropped)
	fmt.Fprintf(w, "shadow sampling: %d divergences, %d culprits quarantined, %d bisection replays",
		r.ShadowDivergences, r.ShadowQuarantined, r.BisectionReplays)
	if r.CulpritFunc >= 0 {
		fmt.Fprintf(w, " (culprit fn %d pc %d)", r.CulpritFunc, r.CulpritPC)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "outputs bit-identical to JIT-disabled reference: %v\n", r.OutputsMatch)
	fmt.Fprintf(w, "overhead at %.0f%% sampling: %.0f -> %.0f ns/req (%+.2f%%)\n",
		r.SampleRate*100, r.BaselineNsPerReq, r.VerifiedNsPerReq, r.OverheadPct)
	m := r.Monitor
	fmt.Fprintf(w, "monitor: %d checksums, %d audited (%d sweeps), %d shadow runs, %d invalidated\n",
		m.ChecksumsRecorded, m.Audited, m.AuditSweeps, m.ShadowRuns, m.Invalidated)
}
