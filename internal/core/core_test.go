package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
)

// modes returns one config per execution mode (Figure 8's bars).
func modes() map[string]jit.Config {
	mk := func(m jit.Mode) jit.Config {
		c := jit.DefaultConfig()
		c.Mode = m
		c.ProfileTrigger = 20 // small programs: trigger early
		return c
	}
	return map[string]jit.Config{
		"interp":    mk(jit.ModeInterp),
		"tracelet":  mk(jit.ModeTracelet),
		"profiling": mk(jit.ModeProfiling),
		"region":    mk(jit.ModeRegion),
	}
}

// runAllModes executes src repeatedly in every mode and checks all
// runs agree with the interpreter.
func runAllModes(t *testing.T, src string, iterations int) {
	t.Helper()
	var want string
	unitSrc := src
	order := []string{"interp", "tracelet", "profiling", "region"}
	allCfg := modes()
	for _, name := range order {
		cfg := allCfg[name]
		unit, err := core.Compile(unitSrc, core.CompileOptions{})
		if err != nil {
			t.Fatalf("[%s] compile: %v", name, err)
		}
		var all strings.Builder
		eng, err := core.NewEngine(unit, cfg, &all)
		if err != nil {
			t.Fatalf("[%s] engine: %v", name, err)
		}
		for i := 0; i < iterations; i++ {
			if _, err := eng.RunRequest(&all); err != nil {
				t.Fatalf("[%s] iteration %d: %v", name, i, err)
			}
			all.WriteString("|")
		}
		got := all.String()
		if name == "interp" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("[%s] output diverges from interpreter:\n got: %.300q\nwant: %.300q",
				name, got, want)
		}
	}
}

func TestModesAgreeArithLoop(t *testing.T) {
	runAllModes(t, `
function work($n) {
  $sum = 0;
  for ($i = 0; $i < $n; $i++) {
    $sum = $sum + $i * 2 - 1;
  }
  return $sum;
}
echo work(50), "\n";
`, 12)
}

func TestModesAgreeAvgPositive(t *testing.T) {
	// The paper's running example, with mixed int/double arrays to
	// force the retranslation chains of Figure 4.
	runAllModes(t, `
function avgPositive($arr) {
  $sum = 0;
  $n = 0;
  $size = count($arr);
  for ($i = 0; $i < $size; $i++) {
    $elem = $arr[$i];
    if ($elem > 0) {
      $sum = $sum + $elem;
      $n++;
    }
  }
  if ($n == 0) {
    throw new Exception("no positive numbers");
  }
  return $sum / $n;
}
echo avgPositive([1, 2, 3, -4]), " ";
echo avgPositive([1.5, -2.0, 3.25]), " ";
echo avgPositive([1, 2.5, -3]), "\n";
`, 12)
}

func TestModesAgreeStrings(t *testing.T) {
	runAllModes(t, `
function shout($s, $times) {
  $out = "";
  for ($i = 0; $i < $times; $i++) {
    $out = $out . strtoupper($s) . "!";
  }
  return $out;
}
echo shout("hey", 3), "\n", strlen(shout("abc", 5)), "\n";
`, 10)
}

func TestModesAgreeObjects(t *testing.T) {
	runAllModes(t, `
class Shape {
  public $name = "shape";
  function area() { return 0; }
  function describe() { return $this->name . ":" . $this->area(); }
}
class Rect extends Shape {
  public $w = 0;
  public $h = 0;
  function __construct($w, $h) { $this->w = $w; $this->h = $h; $this->name = "rect"; }
  function area() { return $this->w * $this->h; }
}
class Circle extends Shape {
  public $r = 0;
  function __construct($r) { $this->r = $r; $this->name = "circle"; }
  function area() { return 3 * $this->r * $this->r; }
}
$shapes = [new Rect(2, 3), new Circle(4), new Rect(1, 5)];
$total = 0;
foreach ($shapes as $s) {
  $total += $s->area();
}
echo $total, " ", $shapes[0]->describe(), "\n";
`, 12)
}

func TestModesAgreeExceptions(t *testing.T) {
	runAllModes(t, `
function risky($x) {
  if ($x % 3 == 0) { throw new RuntimeException("bad " . $x); }
  return $x * 2;
}
$log = "";
for ($i = 1; $i <= 9; $i++) {
  try {
    $log .= risky($i);
  } catch (RuntimeException $e) {
    $log .= "[" . $e->getMessage() . "]";
  }
}
echo $log, "\n";
`, 10)
}

func TestModesAgreeArraysCOW(t *testing.T) {
	runAllModes(t, `
function stamp($arr, $v) {
  $arr[] = $v;      // COW: caller's array unchanged
  return count($arr);
}
$base = [1, 2, 3];
$n1 = stamp($base, 10);
$n2 = stamp($base, 20);
echo $n1, $n2, count($base), "\n";
$m = ["a" => 1];
$m["b"] = 2;
foreach ($m as $k => $v) { echo $k, $v; }
echo "\n";
`, 10)
}

func TestModesAgreeDestructors(t *testing.T) {
	runAllModes(t, `
class Tracker {
  public $id = 0;
  function __construct($id) { $this->id = $id; }
  function __destruct() { echo "~", $this->id, ";"; }
}
function spin($n) {
  $t = new Tracker($n);
  return $n * 2;   // $t dies here
}
for ($i = 0; $i < 4; $i++) { echo spin($i), ";"; }
echo "\n";
`, 8)
}

func TestModesAgreeRecursion(t *testing.T) {
	runAllModes(t, `
function fib($n) { return $n < 2 ? $n : fib($n-1) + fib($n-2); }
echo fib(12), "\n";
`, 8)
}

func TestModesAgreePolymorphicLoop(t *testing.T) {
	// Forces guard relaxation decisions: $x flips between int and
	// double across iterations.
	runAllModes(t, `
function mix($data) {
  $acc = 0.0;
  foreach ($data as $x) {
    $acc = $acc + $x;
  }
  return $acc;
}
$data = [1, 2.5, 3, 4.5, 5, 6.5];
echo mix($data), "\n";
`, 12)
}

func TestModesAgreeTypeHints(t *testing.T) {
	runAllModes(t, `
function dist(float $x, float $y) { return sqrt($x*$x + $y*$y); }
echo dist(3.0, 4.0), " ", dist(3, 4), "\n";
`, 8)
}

// TestModesAgreeErrorPaths: runtime errors raised inside JITed code
// carry the interpreter's exact messages (and builtin arity checks),
// because both tiers call the same op implementations.
func TestModesAgreeErrorPaths(t *testing.T) {
	runAllModes(t, `
class Box { public $v = 1; }
function typed(int $x) { return $x + 1; }
function arity($s) { return strlen($s, 2); }
function idx($n) { $a = $n; return $a[1]; }
function meth($n) { $o = $n; return $o->foo(1); }
function nothis() { return $this; }
function prop($n) { $o = $n; return $o->v; }
function undef($n) { return NoSuchFunc($n); }
function attempt($k) {
  try {
    if ($k == 0) { return typed("abc"); }
    if ($k == 1) { return arity("abc"); }
    if ($k == 2) { return idx(5); }
    if ($k == 3) { return meth(7); }
    if ($k == 4) { return nothis(); }
    if ($k == 5) { return prop(9); }
    return undef(1);
  } catch (Exception $e) {
    return "[" . $e->getMessage() . "]";
  }
}
for ($k = 0; $k < 7; $k++) { echo attempt($k), "\n"; }
`, 40)
}

// TestModesAgreeOperandsReleased: JITed code releases the operands of
// a generic binop and a switch scrutinee as the interpreter does, so
// an object losing its last reference there destructs on time.
func TestModesAgreeOperandsReleased(t *testing.T) {
	runAllModes(t, `
class D { function __destruct() { echo "d"; } }
function pick($v) {
  switch ($v) {
    case 0: return "a";
    case 1: return "b";
    case 2: return "c";
    default: return "z";
  }
}
function f($n) {
  $acc = 0;
  $s = "";
  for ($i = 0; $i < $n; $i++) {
    $a = [new D()];
    $b = $a + [1, 2, 3];
    $acc += count($b);
    $s .= pick(new D());
  }
  return $s . $acc;
}
echo f(5), "\n";
`, 40)
}

func TestRegionJITIsFasterThanInterp(t *testing.T) {
	src := `
function hot($n) {
  $sum = 0;
  for ($i = 0; $i < $n; $i++) { $sum += $i; }
  return $sum;
}
echo hot(300), "\n";
`
	cycles := map[string]uint64{}
	for name, cfg := range modes() {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i := 0; i < 30; i++ {
			c, err := eng.RunRequest(&strings.Builder{})
			if err != nil {
				t.Fatalf("[%s]: %v", name, err)
			}
			last = c
		}
		cycles[name] = last
	}
	if cycles["region"] >= cycles["interp"] {
		t.Errorf("region JIT (%d cycles) not faster than interpreter (%d)",
			cycles["region"], cycles["interp"])
	}
	if cycles["tracelet"] >= cycles["interp"] {
		t.Errorf("tracelet JIT (%d) not faster than interpreter (%d)",
			cycles["tracelet"], cycles["interp"])
	}
	t.Logf("steady-state cycles: %v", cycles)
}

func TestOptimizedCodeIsPublished(t *testing.T) {
	src := `
function tick($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
echo tick(100);
`
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 10
	eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.ProfilingTranslations == 0 {
		t.Error("no profiling translations were made")
	}
	if st.OptimizedTranslations == 0 {
		t.Error("global trigger never published optimized translations")
	}
	if st.OptimizeRuns != 1 {
		t.Errorf("expected exactly one global retranslation, got %d", st.OptimizeRuns)
	}
	t.Logf("stats: %+v", st)
}

func ExampleRun() {
	out, _ := core.Run(`echo "hello from the region JIT";`, jit.DefaultConfig())
	fmt.Println(out)
	// Output: hello from the region JIT
}
