// Custom-format generation: run the full RLIBM-Prog pipeline at runtime for
// a user-chosen pair of small formats, then verify the result exhaustively.
// This exercises the generator as a library — the paper's "unified approach
// to implementing math library functions" applied to a new representation.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/verify"
)

func main() {
	// A hypothetical accelerator pair: an 11-bit storage format and a
	// 14-bit accumulation format, both with 8 exponent bits.
	small := fp.MustFormat(11, 8)
	large := fp.MustFormat(14, 8)
	fn := bigmath.Exp2

	fmt.Printf("generating a progressive %v polynomial for levels %v ⊂ %v ...\n", fn, small, large)
	start := time.Now()
	res, err := gen.Generate(fn, gen.Options{
		Levels: []fp.Format{small, large},
		Seed:   7,
		Logf:   log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	orc := oracle.New(fn)
	patched, err := verify.Repair(res, orc, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated in %v (%d special inputs patched by verification)\n",
		time.Since(start).Round(time.Millisecond), patched)

	fmt.Printf("polynomial: %d piece(s), %v terms for %v, %v terms for %v, %d coefficient bytes\n",
		res.NumPieces()[0], res.TermsAt(1), large, res.TermsAt(0), small, res.CoefficientBytes())

	// Exhaustive verification through the compiled kernels: every input of
	// the large format under all five modes, every input of the small
	// format under rn.
	for li, modes := range [][]fp.Mode{{fp.RoundNearestEven}, fp.StandardModes} {
		reps, err := verify.ExhaustiveLevel(res, orc, li, modes, 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, rep := range reps {
			fmt.Printf("  %v\n", rep)
			if !rep.Correct() {
				log.Fatal("verification failed")
			}
		}
	}

	// Use it: a few values through the kernel libm would serve them from.
	k, err := eval.Compile(res, large, fp.RoundNearestEven)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncorrectly rounded 2^x in %v:\n", large)
	for _, x := range []float64{-3.5, 0.3359375, 1.75, 9.0625} {
		fmt.Printf("  2^%-10v = %v\n", x, large.Decode(k.Eval(x)))
	}
}
