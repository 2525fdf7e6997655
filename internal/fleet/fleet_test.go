package fleet

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/perflab"
	"repro/internal/server"
)

// tinyConfig keeps unit-test fleets fast: few hosts, short horizon,
// small budgets.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 3
	cfg.Minutes = 8
	cfg.CyclesPerMinute = 1_200_000
	cfg.Users = 50_000
	cfg.JIT.ProfileTrigger = 4000
	return cfg
}

// donorSnapshot warms one engine to its optimized publish, so it
// carries a real profile, and returns snapshots of it (fresh copy
// each call).
func donorSnapshot(t *testing.T) func() *jumpstart.Snapshot {
	t.Helper()
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := perflab.WarmToOptimized(eng, eps, nil); err != nil {
		t.Fatal(err)
	}
	return eng.ProfileSnapshot
}

// TestAggregatorConcurrentPublishPull is the fleet's race test: many
// hosts publish snapshots and the service merges rounds while a
// restarting host pulls the warm aggregate mid-merge and jumpstarts
// from it. Run with -race.
func TestAggregatorConcurrentPublishPull(t *testing.T) {
	snap := donorSnapshot(t)
	agg := NewAggregator(0.9)

	const hosts = 4
	const rounds = 8
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				agg.Publish(h, snap())
			}
		}(h)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			agg.MergeRound(float64(i))
		}
	}()
	// The restarting host: pull whatever aggregate is published and
	// jumpstart a fresh engine from it, repeatedly, mid-merge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			warm := agg.Warm()
			if warm == nil {
				continue
			}
			eng, _, err := perflab.NewEngine(jit.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			if res := eng.LoadProfile(warm); res.LoadedTrans == 0 {
				t.Error("warm aggregate loaded zero translations")
				return
			}
		}
	}()
	wg.Wait()

	// Flush any snapshots still pending, then the aggregate must load.
	agg.MergeRound(float64(rounds))
	warm := agg.Warm()
	if warm == nil {
		t.Fatal("no aggregate after merge rounds")
	}
	eng, _, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.LoadProfile(warm); res.LoadedTrans == 0 {
		t.Fatal("final aggregate loaded zero translations")
	}
	st := agg.Stats()
	if st.Publishes != hosts*rounds || st.MergeRounds == 0 || st.Trans == 0 {
		t.Fatalf("unexpected aggregator stats: %+v", st)
	}
}

// TestAggregatorMergeMatchesDirectMerge replays a publish round by
// hand: one MergeRound over fresh pending snapshots (no prior
// aggregate) must equal the canonical N-way jumpstart.Merge of the
// same snapshots at unit weights.
func TestAggregatorMergeMatchesDirectMerge(t *testing.T) {
	snap := donorSnapshot(t)
	s0, s1, s2 := snap(), snap(), snap()

	agg := NewAggregator(0.9)
	agg.Publish(2, s2)
	agg.Publish(0, s0)
	agg.Publish(1, s1)
	if n := agg.MergeRound(1); n != 3 {
		t.Fatalf("merged %d snapshots, want 3", n)
	}
	want := jumpstart.Merge([]*jumpstart.Snapshot{s0, s1, s2}, nil)
	if !reflect.DeepEqual(agg.Warm(), want) {
		t.Fatal("aggregator round differs from direct N-way merge")
	}
	if agg.StalenessAt(4) != 3 {
		t.Fatalf("staleness = %v, want 3", agg.StalenessAt(4))
	}
}

// TestFleetDeterministic: same seed, same config -> bit-identical
// timelines, even though hosts serve concurrently.
func TestFleetDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("fleet timelines diverged across identical runs")
	}
	if !reflect.DeepEqual(a.HostTimelines, b.HostTimelines) {
		t.Fatal("host timelines diverged across identical runs")
	}
	if a.Requests != b.Requests || a.UniqueUsers != b.UniqueUsers {
		t.Fatalf("traffic diverged: %d/%d reqs, %d/%d users",
			a.Requests, b.Requests, a.UniqueUsers, b.UniqueUsers)
	}
	if a.OutputMismatches != 0 {
		t.Fatalf("%d outputs diverged from single-host serving", a.OutputMismatches)
	}
}

// TestFleetWarmRestartFaster: a host restarting with the aggregator's
// warm aggregate must return to 90% steady RPS faster than one
// restarting cold, and the fleet-level sentinel paths must hold.
func TestFleetWarmRestartFaster(t *testing.T) {
	cfg := tinyConfig()
	cfg.Minutes = 14
	cfg.RestartAt = 7
	cfg.RestartCount = 1

	cold, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmRestart = true
	warm, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Restarts) != 1 || len(warm.Restarts) != 1 {
		t.Fatalf("restarts: cold %d, warm %d, want 1 each", len(cold.Restarts), len(warm.Restarts))
	}
	wr := warm.Restarts[0]
	if !wr.Warm || wr.LoadedTrans == 0 {
		t.Fatalf("warm restart did not load the aggregate: %+v", wr)
	}
	if wr.MinutesTo90 == server.MinutesTo90Never {
		t.Fatal("warm restart never reached 90% steady RPS")
	}
	if c := cold.Restarts[0].MinutesTo90; c != server.MinutesTo90Never && wr.MinutesTo90 >= c {
		t.Fatalf("warm restart (%v min) not faster than cold (%v min)", wr.MinutesTo90, c)
	}
	if !warm.Reached90() {
		t.Fatal("fleet never reached 90% steady RPS")
	}
}

// TestFleetOverloadShedVsDie: under heavy overload, shedding walks
// hosts down the degradation ladder (reaching interp-only) and every
// host survives and recovers; with shedding disabled hosts die.
func TestFleetOverloadShedVsDie(t *testing.T) {
	cfg := tinyConfig()
	cfg.Minutes = 14
	cfg.DiurnalAmp = 0
	cfg.OverloadAt = 6
	cfg.OverloadMinutes = 5
	cfg.OverloadFactor = 2.5
	cfg.ShedRatio = 1.2

	shed, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shed.HostsDied != 0 {
		t.Fatalf("%d hosts died despite shedding", shed.HostsDied)
	}
	interpOnly := 0
	for _, d := range shed.MaxDegradePerHost {
		if d >= jit.DegradeInterpOnly {
			interpOnly++
		}
	}
	if interpOnly == 0 {
		t.Fatal("no host degraded to interp-only under overload")
	}
	if last := shed.Samples[len(shed.Samples)-1]; last.MaxDegrade != jit.DegradeNone {
		t.Fatalf("fleet still degraded (level %d) after overload ended", last.MaxDegrade)
	}

	cfg.DisableShed = true
	cfg.DeathBacklog = 1.2
	died, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if died.HostsDied == 0 {
		t.Fatal("no hosts died with shedding disabled under the same overload")
	}
}

// TestFleetNeverReached90Sentinel: a horizon too short to warm up
// must report the explicit sentinel, not a bogus minute.
func TestFleetNeverReached90Sentinel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Minutes = 2
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reached90() || r.MinutesTo90 != server.MinutesTo90Never {
		t.Fatalf("MinutesTo90 = %v, want sentinel %v", r.MinutesTo90, server.MinutesTo90Never)
	}
}

// TestSimulateRejectsEmptyFleet: zero hosts or zero minutes are
// config errors, not a silent switch to DefaultConfig.
func TestSimulateRejectsEmptyFleet(t *testing.T) {
	noHosts := tinyConfig()
	noHosts.Hosts = 0
	if _, err := Simulate(noHosts); err == nil {
		t.Error("Simulate accepted Hosts=0")
	}
	noMinutes := tinyConfig()
	noMinutes.Minutes = 0
	if _, err := Simulate(noMinutes); err == nil {
		t.Error("Simulate accepted Minutes=0")
	}
}

// TestAssignRouting covers the balancer: shares sum to offered,
// unhealthy hosts get nothing, backlogged hosts get less than clean
// peers of equal capacity.
func TestAssignRouting(t *testing.T) {
	mk := func(backlog float64, up bool) *host {
		h := &host{capFactor: 1, capacityRPS: 100, backlog: backlog}
		if up {
			h.srv = &server.Host{}
		}
		return h
	}
	hosts := []*host{mk(0, true), mk(150, true), mk(0, false), mk(0, true)}
	shares := assign(300, hosts, 0.25)

	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 299.999 || sum > 300.001 {
		t.Fatalf("shares sum to %v, want 300", sum)
	}
	if shares[2] != 0 {
		t.Fatalf("down host received %v requests", shares[2])
	}
	if shares[1] >= shares[0] {
		t.Fatalf("backlogged host got %v, clean peer %v — least-loaded inverted", shares[1], shares[0])
	}
	if shares[0] != shares[3] {
		t.Fatalf("equal hosts got unequal shares: %v vs %v", shares[0], shares[3])
	}

	// No routable host: everything is lost, nothing assigned.
	for _, s := range assign(300, []*host{mk(0, false)}, 0.25) {
		if s != 0 {
			t.Fatal("assigned traffic with no routable host")
		}
	}
}
