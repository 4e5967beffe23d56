package libm

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/verify"
)

// smallResult generates a tiny but real implementation for tests that must
// not depend on the checked-in tables.
func smallResult(t *testing.T, fn bigmath.Func) *gen.Result {
	t.Helper()
	res, err := gen.Generate(fn, gen.Options{
		Levels: []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func withRegistered(t *testing.T, fn bigmath.Func, res *gen.Result, f func()) {
	t.Helper()
	oldP, oldB := progressive[fn], rlibmAll[fn]
	progressive[fn] = res
	rlibmAll[fn] = res
	defer func() { progressive[fn], rlibmAll[fn] = oldP, oldB }()
	f()
}

func TestRegistryAndEval(t *testing.T) {
	fn := bigmath.Log2
	res := smallResult(t, fn)
	withRegistered(t, fn, res, func() {
		if !Have(fn) || !HaveBaseline(fn) {
			t.Fatal("registry")
		}
		small := fp.MustFormat(11, 8)
		x := small.Decode(small.FromFloat64(2, fp.RoundNearestEven))
		bits, err := Eval(fn, x, small, fp.RoundNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if got := small.Decode(bits); got != 1 {
			t.Errorf("log2(2) = %v", got)
		}
		// A format wider than the levels is rejected.
		if _, err := Eval(fn, 2, fp.Float32, fp.RoundNearestEven); err == nil {
			t.Error("expected error for too-wide format")
		}
	})
}

func TestMissingTables(t *testing.T) {
	// Pick a function and clear it.
	fn := bigmath.CosPi
	oldP := progressive[fn]
	progressive[fn] = nil
	defer func() { progressive[fn] = oldP }()
	if Have(fn) {
		t.Skip("tables registered by generated files; cannot clear safely")
	}
	if _, err := Progressive(fn); err == nil {
		t.Error("expected error")
	}
	if _, err := Eval(fn, 1.5, fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Error("expected error")
	}
}

// EmitGo must produce parseable Go that round-trips the polynomial data.
func TestEmitGoParses(t *testing.T) {
	res := smallResult(t, bigmath.Exp2)
	src := gen.EmitGo(res, "libm", "register")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "zz_test_emit.go", src, 0); err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	for _, needle := range []string{"package libm", "register(&gen.Result{", "bigmath.Exp2", "LevelTerms"} {
		if !strings.Contains(src, needle) {
			t.Errorf("emitted source missing %q", needle)
		}
	}
}

// If real tables are checked in, their serving kernels must be exhaustively
// correct for bfloat16 under rn — a cheap guard that the committed data matches the
// committed code.
func TestCommittedTablesBfloat16(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	anyChecked := false
	for _, fn := range bigmath.AllFuncs {
		if !Have(fn) {
			continue
		}
		anyChecked = true
		res, _ := Progressive(fn)
		impl, err := verify.Compile(res, fp.Bfloat16)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		orc := oracleFor(fn)
		for _, rep := range verify.Exhaustive(impl, orc, fp.Bfloat16, []fp.Mode{fp.RoundNearestEven}, 0) {
			if !rep.Correct() {
				t.Errorf("%v: %v", fn, rep)
			}
		}
	}
	if !anyChecked {
		t.Skip("no committed tables")
	}
}

func oracleFor(fn bigmath.Func) *oracle.Oracle { return oracle.New(fn) }

// The paper's claim covers every format between 10 bits and the largest
// (same exponent width): full evaluation at the largest level must be
// correctly rounded for intermediate formats under all five modes. Checked
// by sampling here (rlibm-check does it exhaustively).
func TestCommittedTablesIntermediateFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	largest, ok := LargestFormat()
	if !ok {
		t.Skip("no committed tables")
	}
	mid := fp.MustFormat(largest.Bits()-2, 8)
	small := fp.MustFormat(11, 8)
	for _, fn := range bigmath.AllFuncs {
		if !Have(fn) {
			continue
		}
		res, _ := Progressive(fn)
		orc := oracleFor(fn)
		for _, f := range []fp.Format{mid, small} {
			impl, err := verify.Compile(res, f)
			if err != nil {
				t.Fatalf("%v at %v: %v", fn, f, err)
			}
			for _, rep := range verify.Sampled(impl, orc, f, fp.StandardModes, 3000, 11, 0) {
				if !rep.Correct() {
					t.Errorf("%v at %v: %v", fn, f, rep)
				}
			}
		}
	}
}
