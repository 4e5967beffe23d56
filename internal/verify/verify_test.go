package verify

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

func smallResult(t *testing.T, fn bigmath.Func) *gen.Result {
	t.Helper()
	res, err := gen.Generate(fn, gen.Options{
		Levels: []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExhaustiveCleanImplementation(t *testing.T) {
	fn := bigmath.Log10
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)} {
		var modes []fp.Mode
		if f.Bits() == 13 {
			modes = fp.StandardModes
		} else {
			modes = []fp.Mode{fp.RoundNearestEven}
		}
		impl, err := Compile(res, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range Exhaustive(impl, orc, f, modes, 0) {
			if !rep.Correct() {
				t.Errorf("%v", rep)
			}
			if rep.Checked != f.NumValues() {
				t.Errorf("checked %d of %d", rep.Checked, f.NumValues())
			}
		}
	}
}

// A corrupted coefficient must be detected, and small corruptions must be
// repairable into the special table.
func TestDetectAndRepairCorruption(t *testing.T) {
	fn := bigmath.Exp
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}

	// Heavy corruption: scale the top coefficient. Exhaustive must light up.
	k := &res.Kernels[0]
	old := k.Pieces[0].Coeffs[0]
	k.Pieces[0].Coeffs[0] = old * (1 + 1e-3)
	bad := 0
	for _, rep := range exhaustiveLevel(t, res, orc, 1, []fp.Mode{fp.RoundNearestEven}) {
		bad += len(rep.Mismatches)
	}
	if bad == 0 {
		t.Fatal("corruption not detected")
	}
	if _, err := Repair(res, orc, 0); err == nil {
		t.Fatal("heavy corruption unexpectedly repairable within budget")
	}
	k.Pieces[0].Coeffs[0] = old

	// Light corruption: drop one special entry (if any); Repair restores it.
	for li := range res.Specials {
		if len(res.Specials[li]) > 0 {
			res.Specials[li] = res.Specials[li][1:]
			break
		}
	}
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatalf("light repair failed: %v", err)
	}
	for li := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == 1 {
			modes = fp.StandardModes
		}
		for _, rep := range exhaustiveLevel(t, res, orc, li, modes) {
			if !rep.Correct() {
				t.Errorf("after repair: %v", rep)
			}
		}
	}
}

func TestSampledFindsCorpusMismatch(t *testing.T) {
	fn := bigmath.Sinh
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}
	f := fp.MustFormat(13, 8)
	impl, err := Compile(res, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range Sampled(impl, orc, f, fp.StandardModes, 2000, 9, 0) {
		if !rep.Correct() {
			t.Errorf("%v", rep)
		}
	}
	// A broken impl (always +1) must fail immediately via the corpus.
	brokenReports := Sampled(brokenImpl{}, orc, f, []fp.Mode{fp.RoundNearestEven}, 10, 9, 0)
	if brokenReports[0].Correct() {
		t.Error("broken implementation passed sampling")
	}
}

// exhaustiveLevel is ExhaustiveLevel on every CPU, failing the test on a
// compile error.
func exhaustiveLevel(t *testing.T, res *gen.Result, orc *oracle.Oracle, li int, modes []fp.Mode) []Report {
	t.Helper()
	reps, err := ExhaustiveLevel(res, orc, li, modes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// A format wider than the generated levels has no kernel: Compile must say
// so with eval.ErrTooWide rather than evaluate the largest level on inputs
// that are not values of its format.
func TestCompileTooWide(t *testing.T) {
	res := smallResult(t, bigmath.Exp2)
	if _, err := Compile(res, fp.MustFormat(13, 8)); err != nil {
		t.Fatalf("largest level: %v", err)
	}
	for _, f := range []fp.Format{fp.MustFormat(14, 8), fp.MustFormat(25, 8)} {
		if _, err := Compile(res, f); !errors.Is(err, eval.ErrTooWide) {
			t.Errorf("Compile(%v) = %v, want eval.ErrTooWide", f, err)
		}
	}
}

// refLevel is the Impl of the reference evaluator gen.Result.Eval at one
// level: the specification the kernels are compiled from.
type refLevel struct {
	res *gen.Result
	li  int
}

func (r refLevel) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return r.res.Eval(x, r.li, out, mode)
}

// Repairing through the kernels (Repair's default sweep) must patch exactly
// what repairing through the reference evaluator patches, pass by pass, for
// a progressive and a ProgressiveRO result. The results start with special
// tables that are empty but for three wrong entries, so that both repairs
// have inputs to patch.
func TestKernelRepairMatchesReference(t *testing.T) {
	for _, ro := range []bool{false, true} {
		fn := bigmath.Exp
		opt := gen.Options{
			Levels:        []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)},
			ProgressiveRO: ro,
			Seed:          5,
		}
		res, err := gen.Generate(fn, opt)
		if err != nil {
			t.Fatal(err)
		}
		for li := range res.Specials {
			res.Specials[li] = nil
			for _, x := range []float64{0.75, 1.5, -3} {
				res.AddSpecial(li, x, 1e30)
			}
		}
		orc := oracle.New(fn)
		repair := func(reference bool) (*gen.Result, int, [][]Report) {
			r := decodeCopy(t, res)
			var sweeps [][]Report
			n, err := RepairWith(r, orc, func(li, _ int, modes []fp.Mode) ([]Report, error) {
				var reps []Report
				if reference {
					reps = Exhaustive(refLevel{r, li}, orc, r.Levels[li], modes, 0)
				} else {
					reps = exhaustiveLevel(t, r, orc, li, modes)
				}
				sweeps = append(sweeps, reps)
				return reps, nil
			})
			if err != nil {
				t.Fatalf("ro=%v reference=%v: %v", ro, reference, err)
			}
			return r, n, sweeps
		}
		refRes, refN, refSweeps := repair(true)
		kerRes, kerN, kerSweeps := repair(false)
		if refN == 0 {
			t.Fatalf("ro=%v: nothing to patch; the comparison is vacuous", ro)
		}
		if kerN != refN {
			t.Errorf("ro=%v: kernel repair patched %d, reference %d", ro, kerN, refN)
		}
		if !reflect.DeepEqual(kerSweeps, refSweeps) {
			t.Errorf("ro=%v: kernel sweep reports differ from the reference's", ro)
		}
		if !bytes.Equal(encode(kerRes), encode(refRes)) {
			t.Errorf("ro=%v: kernel-repaired result differs from the reference-repaired one", ro)
		}
	}
}

func encode(res *gen.Result) []byte {
	var e pipeline.Enc
	gen.ResultCodec.Encode(&e, res)
	return e.Bytes()
}

// decodeCopy deep-copies res through its codec.
func decodeCopy(t *testing.T, res *gen.Result) *gen.Result {
	t.Helper()
	r, err := gen.ResultCodec.Decode(pipeline.NewDec(encode(res)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

type brokenImpl struct{}

func (brokenImpl) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(math.Abs(x)+1, mode)
}

func TestReportString(t *testing.T) {
	r := Report{Format: fp.Bfloat16, Mode: fp.RoundNearestEven, Checked: 10}
	if r.String() == "" || !r.Correct() {
		t.Error("report formatting")
	}
	r.Mismatches = []uint64{1}
	if r.Correct() {
		t.Error("mismatch not reflected")
	}
}

// TestReportsCodec covers both sealed identities of the shared
// []Report wire shape — distributed verification slices and campaign
// format sweeps: the layout is pinned byte for byte (sealed units from
// earlier runs must keep decoding), reports round-trip, and an invalid
// format or mode decodes to ErrCorrupt.
func TestReportsCodec(t *testing.T) {
	reps := []Report{
		{Format: fp.MustFormat(12, 8), Mode: fp.RoundNearestEven, Checked: 4096},
		{Format: fp.MustFormat(12, 8), Mode: fp.RoundToOdd, Checked: 4096, Mismatches: []uint64{7, 4095}},
	}
	var want pipeline.Enc
	want.Int(len(reps))
	for _, r := range reps {
		want.Int(12)
		want.Int(8)
		want.Int(int(r.Mode))
		want.U64(r.Checked)
		want.Int(len(r.Mismatches))
		for _, b := range r.Mismatches {
			want.U64(b)
		}
	}
	for _, name := range []string{"verify-shard", "campaign-sweep"} {
		c := ReportsCodec(name, 1)
		if c.Name != name || c.Version != 1 {
			t.Fatalf("codec identity = %s/v%d, want %s/v1", c.Name, c.Version, name)
		}
		var e pipeline.Enc
		c.Encode(&e, reps)
		if !bytes.Equal(e.Bytes(), want.Bytes()) {
			t.Fatalf("%s: encoded layout changed", name)
		}
		d := pipeline.NewDec(e.Bytes())
		got, err := c.Decode(d)
		if err != nil || d.Done() != nil {
			t.Fatalf("%s: decode: %v / %v", name, err, d.Done())
		}
		if !reflect.DeepEqual(got, reps) {
			t.Errorf("%s: round trip = %+v, want %+v", name, got, reps)
		}

		for _, bad := range []struct {
			what                string
			bits, expBits, mode int
		}{
			{"format", 12, 0, int(fp.RoundNearestEven)},
			{"mode", 12, 8, int(fp.RoundToOdd) + 1},
			{"negative mode", 12, 8, -1},
		} {
			var e pipeline.Enc
			e.Int(1)
			e.Int(bad.bits)
			e.Int(bad.expBits)
			e.Int(bad.mode)
			e.U64(1)
			e.Int(0)
			if _, err := c.Decode(pipeline.NewDec(e.Bytes())); !errors.Is(err, pipeline.ErrCorrupt) {
				t.Errorf("%s: invalid %s decodes to %v, want ErrCorrupt", name, bad.what, err)
			}
		}
	}
}
