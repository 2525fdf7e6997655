package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/emitter"
	"repro/internal/hhbbc"
	"repro/internal/hhbc"
	"repro/internal/hphpc"
	"repro/internal/jit"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/perflab"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vm"
)

// req is one request: an endpoint of the combined site (args == nil),
// or a guest function called through Engine.Call with host-passed
// integers.
type req struct {
	fn   string
	args []int64
}

// key identifies the request's reference output.
func (r req) key() string {
	if r.args == nil {
		return r.fn
	}
	return fmt.Sprint(r.fn, r.args)
}

// frontendTimes are the frontend step durations of one traced compile.
type frontendTimes struct {
	tokenize, parse, hphpc, emit, hhbbc float64 // ms
	tokens, bcInstrs                    int
}

// compileUnit turns source text into a bytecode unit. Untraced, it is
// core.Compile. Traced, it runs the same steps core.Compile runs, one
// call at a time, each under its own span, plus one extra
// lexer.Tokenize so the lexer's share of parser.Parse can be
// subtracted out.
func compileUnit(src string, t *tracer, parent spanID) (*hhbc.Unit, *frontendTimes, error) {
	if t == nil {
		u, err := core.Compile(src, core.CompileOptions{})
		return u, nil, err
	}
	full := src
	if !strings.Contains(src, "class Exception") {
		full = core.Prelude + src
	}
	var ft frontendTimes
	var toks []lexer.Token
	var err error
	ft.tokenize = t.do("lexer.tokenize", parent, 0, func() { toks, err = lexer.Tokenize(full) })
	if err != nil {
		return nil, nil, fmt.Errorf("tokenize: %w", err)
	}
	ft.tokens = len(toks)
	var prog *ast.Program
	ft.parse = t.do("parser.parse", parent, 0, func() { prog, err = parser.Parse(full) })
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	ft.hphpc = t.do("hphpc.optimize", parent, 0, func() { hphpc.Optimize(prog) })
	var u *hhbc.Unit
	ft.emit = t.do("emitter.emit", parent, 0, func() { u, err = emitter.Emit(prog) })
	if err != nil {
		return nil, nil, fmt.Errorf("emit: %w", err)
	}
	ft.hhbbc = t.do("hhbbc.optimize", parent, 0, func() { err = hhbbc.Optimize(u) })
	if err != nil {
		return nil, nil, fmt.Errorf("hhbbc: %w", err)
	}
	for _, f := range u.Funcs {
		ft.bcInstrs += len(f.Instrs)
	}
	return u, &ft, nil
}

// newEngine starts an engine with the JIT's default configuration.
func newEngine(u *hhbc.Unit) (*core.Engine, error) {
	return core.NewEngine(u, jit.DefaultConfig(), io.Discard)
}

// serve runs one request on worker v of eng and returns the guest
// cycles it cost and its observable result: the endpoint's output, or
// the called function's return value.
func serve(eng *core.Engine, v *vm.VM, r req) (uint64, string, error) {
	if r.args == nil {
		return perflab.RunEndpointVM(v, r.fn)
	}
	args := make([]runtime.Value, len(r.args))
	for i, a := range r.args {
		args[i] = runtime.Int(a)
	}
	before := eng.Cycles()
	val, err := eng.Call(r.fn, args...)
	got := render(val)
	eng.Heap().DecRef(val)
	return eng.Cycles() - before, got, err
}

// render prints a return value with its kind, so that 1 and "1" and
// 1.0 differ.
func render(v runtime.Value) string {
	switch v.Kind {
	case types.KInt:
		return "i:" + v.ToString()
	case types.KDbl:
		return "d:" + v.ToString()
	case types.KStr:
		return "s:" + v.ToString()
	default:
		return v.DebugString()
	}
}

// oracle holds reference results from an interpreter-only engine
// (jit.ModeInterp), the repository's correctness oracle. References are
// computed before the timed windows and memoized by request key.
type oracle struct {
	eng  *core.Engine
	refs map[string]string
}

func newOracle(src string) (*oracle, error) {
	u, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("oracle compile: %w", err)
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeInterp
	eng, err := core.NewEngine(u, cfg, io.Discard)
	if err != nil {
		return nil, fmt.Errorf("oracle engine: %w", err)
	}
	return &oracle{eng: eng, refs: map[string]string{}}, nil
}

// prime computes the reference of every request not seen yet. A
// request the interpreter cannot run is a broken workload, not a JIT
// failure, so it stops the benchmark.
func (o *oracle) prime(t *tracer, parent spanID, rs []req) error {
	for _, r := range rs {
		k := r.key()
		if _, ok := o.refs[k]; ok {
			continue
		}
		var got string
		var err error
		t.do("interp.reference", parent, 0, func() { _, got, err = serve(o.eng, o.eng.VM, r) })
		if err != nil {
			return fmt.Errorf("reference for %s: %w", k, err)
		}
		o.refs[k] = got
	}
	return nil
}

// check reports whether a JIT result matches the reference.
func (o *oracle) check(r req, got string, err error) bool {
	want, ok := o.refs[r.key()]
	return ok && err == nil && got == want
}
