package jit_test

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestTransIndexConcurrentMintAndOptimize: four goroutines mint
// profiling translations at distinct addresses (each owns the
// functions whose ID is its number mod 4) and read the index through
// Lookup, HasMatch and ForEachTranslation, while the global
// retranslation publishes. Run under -race. Afterwards no install may
// have been lost to a racing writer: every minted translation is still
// published, unless it was a profiling translation the optimized
// publish retired for a function that now has optimized code.
func TestTransIndexConcurrentMintAndOptimize(t *testing.T) {
	src, _ := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j := eng.VM.JIT

	const workers = 4
	minted := make([][]*jit.Translation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &machine.Meter{}
			for _, fn := range unit.Funcs {
				if fn.ID%workers != w || len(fn.Instrs) == 0 {
					continue
				}
				fr := interp.NewFrame(j.Env, fn, nil, nil)
				if tr := j.Lookup(fn, fr, m); tr != nil {
					minted[w] = append(minted[w], tr)
				}
				if j.HasMatch(fn, fr) != (j.FindPublished(fn, fr, m) != nil) {
					t.Errorf("%s: HasMatch and FindPublished disagree", fn.FullName())
				}
				j.ForEachTranslation(func(tr *jit.Translation) {
					if tr.Code == nil {
						t.Errorf("published translation without code at %d/%d", tr.FuncID, tr.PC)
					}
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Publish mid-run, once the workers have minted something to
	// optimize.
wait:
	for j.Stats().ProfilingTranslations < 16 {
		select {
		case <-done:
			break wait
		default:
			runtime.Gosched()
		}
	}
	j.OptimizeAll()
	<-done

	if !j.Optimized() {
		t.Fatal("optimized publish did not happen")
	}
	published := map[*jit.Translation]bool{}
	optimizedFn := map[int]bool{}
	j.ForEachTranslation(func(tr *jit.Translation) {
		if published[tr] {
			t.Errorf("translation at %d/%d published twice", tr.FuncID, tr.PC)
		}
		published[tr] = true
		if tr.Kind == jit.ModeRegion {
			optimizedFn[tr.FuncID] = true
		}
	})
	total := 0
	for w := range minted {
		for _, tr := range minted[w] {
			total++
			if published[tr] {
				continue
			}
			if tr.Kind != jit.ModeProfiling || !optimizedFn[tr.FuncID] {
				t.Errorf("minted %v translation at %d/%d is missing from the index", tr.Kind, tr.FuncID, tr.PC)
			}
		}
	}
	if total < 16 || len(optimizedFn) == 0 {
		t.Errorf("minted %d translations, optimized %d functions: the race was not exercised", total, len(optimizedFn))
	}
}
