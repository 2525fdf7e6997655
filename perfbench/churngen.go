package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// type_churn drives the JIT the other way round from site_steady: the
// argument types its kernels see change while it serves, so guards
// fail, translations side-exit, live retranslation chains grow and
// execution falls back to the interpreter.
//
// The guest code builds each argument from two host-passed integers, a
// kind and a value (mk below), so the host only ever passes ints and
// the type drift lives in the guest. The call schedule has three
// phases:
const (
	// churnPhase0 calls pass int kinds only. They run the program
	// through profiling into the single global retranslation, so the
	// optimized code speculates int everywhere. The trigger fires well
	// inside this phase (the runner checks it).
	churnPhase0 = 600
	// churnPhase1 calls mix int and double: the first drift breaks the
	// int speculation and mints live translations for doubles.
	churnPhase1 = 600
	// churnPhase2 calls draw from every kind: int, double, numeric
	// string, array and three receiver classes. Retranslation chains
	// reach their limit and requests fall back to the interpreter.
	churnPhase2 = 1200

	// churnKernels is the number of generated kernels; each cycles
	// through the templates below, so every seed gets the same mix of
	// kernel shapes and only constants and call order vary.
	churnKernels = 32
	// churnValues bounds the host-passed values.
	churnValues = 40
	// churnKinds is the number of argument kinds mk can build.
	churnKinds = 7
	// churnVerify is how many of the last calls are replayed on the
	// engine restarted from the snapshot.
	churnVerify = 100
)

// churnProgram is one generated type_churn unit and its call schedule.
type churnProgram struct {
	src   string
	calls []req
}

// churnPrelude builds arguments from (kind, value) pairs and reads a
// number back out of any of them.
const churnPrelude = `
class RecvA {
  public $v = 0;
  function __construct($v) { $this->v = $v; }
  function val() { return $this->v + 1; }
}
class RecvB {
  public $w = 2;
  public $v = 0;
  function __construct($v) { $this->v = $v; }
  function val() { return $this->v * $this->w; }
}
class RecvC {
  public $tag = "c";
  public $v = 0;
  public $bias = 3;
  function __construct($v) { $this->v = $v; }
  function val() { return $this->v - $this->bias; }
}
function mk($k, $v) {
  if ($k == 0) { return $v; }
  if ($k == 1) { return $v + 0.25; }
  if ($k == 2) { return "" . ($v * 3); }
  if ($k == 3) { return [$v, $v + 1, $v * 2]; }
  if ($k == 4) { return new RecvA($v); }
  if ($k == 5) { return new RecvB($v); }
  return new RecvC($v);
}
function num($x) {
  if (is_array($x)) { return array_sum($x); }
  if (is_int($x)) { return $x; }
  if (is_float($x)) { return $x; }
  if (is_string($x)) { return $x; }
  return $x->val();
}
`

// churnTemplates are the kernel bodies. Each receives $a and $b, built
// by mk, and uses them in arithmetic the JIT specializes by type.
var churnTemplates = []string{
	// Loop-carried arithmetic: the accumulator's type follows $a's.
	`  $s = %[1]d;
  for ($i = 0; $i < %[2]d; $i++) {
    $s = $s + num($a) * %[3]d - $i;
  }
  return $s + num($b);
`,
	// A compare and branch on the two values.
	`  $x = num($a);
  $y = num($b);
  if ($x > $y) { return $x - $y * %[1]d; }
  return $y + $x * %[3]d + %[2]d;
`,
	// String building from the values.
	`  $t = "k%[1]d";
  for ($i = 0; $i < %[2]d; $i++) { $t = $t . num($a); }
  return strlen($t) + num($b) * %[3]d;
`,
	// Integer folding of a mixed-type sum.
	`  $x = num($a) + num($b) * %[3]d;
  return intval($x) %% %[2]d + %[1]d;
`,
}

// genChurn generates the type_churn unit and call schedule for a seed.
// The same seed gives byte-identical source and the same calls.
func genChurn(seed int64) *churnProgram {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(churnPrelude)
	for k := 0; k < churnKernels; k++ {
		// The second constant sets a loop's trip count, so it cycles
		// with k instead of being drawn: every seed's program then does
		// the same amount of work, and seeds differ in constants, call
		// order and values only.
		tmpl := k % len(churnTemplates)
		trips := 3 + (k/len(churnTemplates))%5
		body := fmt.Sprintf(churnTemplates[tmpl], rng.Intn(90)+10, trips, rng.Intn(7)+2)
		fmt.Fprintf(&sb, "\nfunction kern_%d($ka, $va, $kb, $vb) {\n  $a = mk($ka, $va);\n  $b = mk($kb, $vb);\n%s}\n", k, body)
	}
	p := &churnProgram{src: sb.String()}
	call := func(kinds int) {
		p.calls = append(p.calls, req{
			fn: fmt.Sprintf("kern_%d", rng.Intn(churnKernels)),
			args: []int64{
				int64(rng.Intn(kinds)), int64(rng.Intn(churnValues) + 1),
				int64(rng.Intn(kinds)), int64(rng.Intn(churnValues) + 1),
			},
		})
	}
	for i := 0; i < churnPhase0; i++ {
		call(1)
	}
	for i := 0; i < churnPhase1; i++ {
		call(2)
	}
	for i := 0; i < churnPhase2; i++ {
		call(churnKinds)
	}
	return p
}

// runTypeChurn deploys the generated unit again and again for the
// whole window, each deploy serving the full schedule.
func runTypeChurn(o opts) (*bench, *window, error) {
	p := genChurn(o.seed)
	orc, err := newOracle(p.src)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{src: p.src, window: o.window, orc: orc}
	if o.trace {
		b.tr = newTracer()
	}
	if err := orc.prime(b.tr, 0, p.calls); err != nil {
		return nil, nil, err
	}
	w, err := b.deployLoop(p.calls, len(p.calls), p.calls[len(p.calls)-churnVerify:])
	if err != nil {
		return nil, nil, err
	}
	if b.profileReqs > churnPhase0 {
		return nil, nil, fmt.Errorf("optimized publish after %d calls, past the int-only phase", b.profileReqs)
	}
	return b, w, nil
}
