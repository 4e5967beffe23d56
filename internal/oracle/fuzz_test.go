package oracle

import (
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// FuzzOracle asserts that every path of Result (the shortcuts, the quick
// phase and the Ziv fallback) returns the unaccelerated reference's bits:
// for a function, an input format F(k,8) with k in 10..22, an input bit
// pattern of that format and any mode, Result at the round-to-odd target
// F(k+2,8) equals bigmath.CorrectlyRounded. Seeds under
// testdata/fuzz/FuzzOracle sit on the cospi anchor threshold, the exp
// anchor and range-clamp cutoffs, and log inputs just above 1.
func FuzzOracle(f *testing.F) {
	f.Add(uint8(3), uint8(6), uint64(0x3f80), uint8(5)) // exp(1) in bfloat16
	f.Fuzz(func(t *testing.T, fnIdx, width uint8, in uint64, modeIdx uint8) {
		fn := bigmath.AllFuncs[int(fnIdx)%len(bigmath.AllFuncs)]
		inF := fp.MustFormat(10+int(width)%13, 8)
		out := inF.Extend(2)
		mode := fp.AllModes[int(modeIdx)%len(fp.AllModes)]
		x := inF.Decode(in & (inF.NumValues() - 1))
		if got, want := New(fn).Result(x, out, mode), bigmath.CorrectlyRounded(fn, x, out, mode); got != want {
			t.Fatalf("%v(%g) %v %v: got %#x want %#x", fn, x, out, mode, got, want)
		}
	})
}
