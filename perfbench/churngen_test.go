package main

import (
	"reflect"
	"testing"
)

// TestChurnGenDeterministic checks that a seed fixes the type_churn
// unit byte for byte and its call schedule call for call, and that
// another seed changes them.
func TestChurnGenDeterministic(t *testing.T) {
	a, b := genChurn(42), genChurn(42)
	if a.src != b.src {
		t.Fatal("same seed, different source")
	}
	if !reflect.DeepEqual(a.calls, b.calls) {
		t.Fatal("same seed, different call sequence")
	}
	c := genChurn(43)
	if c.src == a.src || reflect.DeepEqual(c.calls, a.calls) {
		t.Fatal("seeds 42 and 43 gave the same program")
	}
}

// TestChurnPhases checks the schedule's kinds: int only, then int and
// double, then every kind.
func TestChurnPhases(t *testing.T) {
	p := genChurn(1)
	if len(p.calls) != churnPhase0+churnPhase1+churnPhase2 {
		t.Fatalf("%d calls", len(p.calls))
	}
	maxKind := func(from, to int) int64 {
		m := int64(0)
		for _, c := range p.calls[from:to] {
			m = max(m, c.args[0], c.args[2])
		}
		return m
	}
	p1 := churnPhase0 + churnPhase1
	if got := maxKind(0, churnPhase0); got != 0 {
		t.Errorf("int-only phase has kind %d", got)
	}
	if got := maxKind(churnPhase0, p1); got != 1 {
		t.Errorf("int/double phase reaches kind %d", got)
	}
	if got := maxKind(p1, len(p.calls)); got != churnKinds-1 {
		t.Errorf("mixed phase reaches kind %d", got)
	}
}

// TestChurnRunsOnInterpreter checks that every call of a few seeds'
// schedules runs without error on the oracle.
func TestChurnRunsOnInterpreter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := genChurn(seed)
		orc, err := newOracle(p.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := orc.prime(nil, 0, p.calls); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
