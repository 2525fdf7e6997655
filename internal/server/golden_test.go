package server_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sentry"
	"repro/internal/server"
)

// The golden files under testdata/ pin the exact serving results of
// one single-worker Figure 9 restart (cold and jumpstarted) and of one
// small fleet run that exercises a warm rolling restart, an overload
// window with shedding, and shadow verification. Any change to the
// serving loop, the calibration, or the lifecycle latches that moves a
// single request or cycle shows up here as a diff.

type serverGolden struct {
	Samples           []server.Sample
	SteadyRPS         float64
	SteadyCodeBytes   uint64
	PctTimeInLiveCode float64
	MinutesTo90       float64
	Verify            sentry.Stats
}

type fleetGolden struct {
	Samples        []fleet.Sample
	HostTimelines  [][]fleet.HostSample
	Restarts       []fleet.RestartRecord
	Requests       uint64
	UniqueUsers    uint64
	Aggregator     fleet.AggregatorStats
	Verify         sentry.Stats
	FleetSteadyRPS float64
	MinutesTo90    float64
}

// checkGolden compares got, rendered as indented JSON (which prints
// every float64 exactly), against testdata/name.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	b, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b, want) {
		return
	}
	gl, wl := strings.Split(string(b), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
}

func serverGoldenOf(r *server.Result) serverGolden {
	return serverGolden{
		Samples:           r.Samples,
		SteadyRPS:         r.SteadyRPS,
		SteadyCodeBytes:   r.SteadyCodeBytes,
		PctTimeInLiveCode: r.PctTimeInLiveCode,
		MinutesTo90:       r.MinutesTo90,
		Verify:            r.Verify,
	}
}

// TestGoldenFig9 pins the quick Figure 9 restart (the `bench -quick`
// jumpstart configuration) with one worker, cold and jumpstarted.
func TestGoldenFig9(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	cfg.Workers = 1

	cold, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9_cold.json", serverGoldenOf(cold))

	snap, err := server.WarmSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jumpstart = snap
	warm, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9_jumpstart.json", serverGoldenOf(warm))
}

// TestGoldenFleet pins a 3-host fleet through a warm rolling restart,
// a shedding overload window, and 20% shadow verification.
func TestGoldenFleet(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Hosts = 3
	cfg.Minutes = 12
	cfg.CyclesPerMinute = 1_200_000
	cfg.Users = 50_000
	cfg.JIT.ProfileTrigger = 4000
	cfg.RestartAt = 3
	cfg.WarmRestart = true
	cfg.OverloadAt = 8
	cfg.OverloadMinutes = 3
	cfg.OverloadFactor = 2.5
	cfg.ShedRatio = 1.2
	cfg.VerifySample = 0.2

	r, err := fleet.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet.json", fleetGolden{
		Samples:        r.Samples,
		HostTimelines:  r.HostTimelines,
		Restarts:       r.Restarts,
		Requests:       r.Requests,
		UniqueUsers:    r.UniqueUsers,
		Aggregator:     r.Aggregator,
		Verify:         r.Verify,
		FleetSteadyRPS: r.FleetSteadyRPS,
		MinutesTo90:    r.MinutesTo90,
	})
}
