package core_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/sentry"
)

// The backend golden files under testdata/ pin every translation the
// JIT publishes while a unit warms to its optimized publish: the
// address, the kind, a checksum of the emitted code and its spill
// count, in publish order. Profiling translations are recorded through
// the publish hook before the global retranslation retires them. A
// change to region formation, the TransCFG, the translation index,
// register allocation or assembly that alters a single emitted
// instruction shows up here as a diff.

// backendRecord is one published translation.
type backendRecord struct {
	FuncID, PC int
	Kind       jit.Mode
	Checksum   uint64
	NumSpills  int
}

// recordPublishes hooks eng's JIT so every published translation is
// appended to the returned slice.
func recordPublishes(eng *core.Engine) *[]backendRecord {
	var recs []backendRecord
	eng.VM.JIT.SetVerifyHooks(func(tr *jit.Translation) {
		recs = append(recs, backendRecord{
			FuncID: tr.FuncID, PC: tr.PC, Kind: tr.Kind,
			Checksum: sentry.Checksum(tr.Code), NumSpills: tr.Code.NumSpills,
		})
	}, nil)
	return &recs
}

// renderBackend prints records as a JSON array, one record per line.
func renderBackend(recs []backendRecord) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range recs {
		sep := ","
		if i == len(recs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "\t[%d, %d, %q, \"%016x\", %d]%s\n",
			r.FuncID, r.PC, r.Kind.String(), r.Checksum, r.NumSpills, sep)
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// checkBackendGolden compares recs against testdata/name.
func checkBackendGolden(t *testing.T, name string, recs []backendRecord) {
	t.Helper()
	got := renderBackend(recs)
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
}

// TestGoldenBackendCombined warms the combined site under the default
// configuration to its optimized publish.
func TestGoldenBackendCombined(t *testing.T) {
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := recordPublishes(eng)
	if err := perflab.WarmToOptimized(eng, eps, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("combined site never reached the optimized publish")
	}
	checkBackendGolden(t, "backend_combined.json", *recs)
}

// TestGoldenBackendGenerated warms one seeded generated program under
// the default configuration to its optimized publish.
func TestGoldenBackendGenerated(t *testing.T) {
	const seed = 12
	unit, err := core.Compile(newProgGen(seed).generate(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordPublishes(eng)
	for i := 0; i < 5000 && !eng.VM.JIT.Optimized(); i++ {
		if _, err := eng.RunRequest(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("generated program never reached the optimized publish")
	}
	checkBackendGolden(t, "backend_generated.json", *recs)
}
