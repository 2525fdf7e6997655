package server_test

import (
	"testing"

	"repro/internal/server"
)

// TestMinutesTo90Sentinel exercises both MinutesTo90 paths: a run
// long enough to warm up reports a real (positive) minute and
// Reached90() == true; a run cut off before warmup reports the
// explicit MinutesTo90Never sentinel, never a fake minute.
func TestMinutesTo90Sentinel(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	reached, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reached.Reached90() {
		t.Fatal("20-minute run never reached 90% steady RPS")
	}
	if reached.MinutesTo90 <= 0 {
		t.Fatalf("MinutesTo90 = %v, want a positive minute", reached.MinutesTo90)
	}

	cfg.Minutes = 2
	cut, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Reached90() {
		t.Fatalf("2-minute run claims 90%% steady RPS at minute %v", cut.MinutesTo90)
	}
	if cut.MinutesTo90 != server.MinutesTo90Never {
		t.Fatalf("MinutesTo90 = %v, want sentinel %v", cut.MinutesTo90, server.MinutesTo90Never)
	}
}

// TestSimulateRejectsEmptyWindow: a zero-minute run is a config
// error, not a silent switch to DefaultConfig.
func TestSimulateRejectsEmptyWindow(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Minutes = 0
	if _, err := server.Simulate(cfg); err == nil {
		t.Fatal("Simulate accepted Minutes=0")
	}
}
