// Command rlibm-table2 regenerates Table 2 of the paper: for each of the
// ten functions and each library — RLIBM-Prog, the glibc substitute, the
// Intel substitute, the CR-LIBM substitute, and the RLibm-All baseline — it
// reports whether the library produces correctly rounded results for
// (1) bfloat16 and tensorfloat32 with rn, (2) the largest ("float") format
// with rn, and (3) the largest format under all standard rounding modes.
//
// bfloat16 and tensorfloat32 are always checked exhaustively; the largest
// format is sampled by default (-exhaustive enumerates all of it, which
// takes minutes per function on one core).
//
// The generated libraries are checked through their compiled serving
// kernels, the code libm and rlibm-serve run. By default they come from
// the emitted internal/libm tables; with -generate they are generated
// through the staged pipeline, reusing the shared artifact cache
// (-cache-dir) — after an rlibm-table1 -generate run the enumeration is
// never repeated.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/oracle"
	"repro/internal/verify"
)

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		exhaustive = flag.Bool("exhaustive", false, "enumerate the largest format exhaustively (slow)")
		samples    = flag.Int("samples", 400000, "sample count per mode for the largest format")
		generate   = flag.Bool("generate", false, "generate the RLIBM libraries through the staged pipeline instead of using the emitted internal/libm tables")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	rec := common.NewRecorder()

	libs, done, err := common.Libraries(*generate, rec)
	if err != nil {
		log.Fatal(err)
	}
	defer done()
	largest := libs.Largest
	columns := libs.List()

	fmt.Printf("Table 2: correctly rounded results for all inputs (largest format %v", largest)
	if *exhaustive {
		fmt.Println(", exhaustive)")
	} else {
		fmt.Printf(", sampled %d/mode)\n", *samples)
	}
	fmt.Println("columns per library: BF16&TF32 rn | largest rn | largest all-rm (crlibm-sub: 4 modes, no ra)")
	fmt.Println(strings.Repeat("=", 20+22*len(columns)))
	fmt.Printf("%-7s", "f(x)")
	for _, c := range columns {
		fmt.Printf(" | %-18s", c.Column)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 20+22*len(columns)))

	mark := func(correct bool) string {
		if correct {
			return "Y"
		}
		return "X"
	}
	for _, fn := range bigmath.AllFuncs {
		orc := oracle.New(fn)
		fmt.Printf("%-7s", fn)
		for _, col := range columns {
			var impls [3]verify.Impl
			for i, f := range []fp.Format{fp.Bfloat16, fp.TensorFloat32, largest} {
				if impls[i], err = col.Impl(fn, f); err != nil {
					break
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v %s: %v\n", fn, col.Column, err)
				fmt.Printf(" | %-18s", "missing")
				continue
			}
			rn := []fp.Mode{fp.RoundNearestEven}
			smallOK := allCorrect(verify.Exhaustive(impls[0], orc, fp.Bfloat16, rn, common.Workers)) &&
				allCorrect(verify.Exhaustive(impls[1], orc, fp.TensorFloat32, rn, common.Workers))
			var rnReports, allReports []verify.Report
			if *exhaustive {
				rnReports = verify.Exhaustive(impls[2], orc, largest, rn, common.Workers)
				allReports = verify.Exhaustive(impls[2], orc, largest, col.Modes, common.Workers)
			} else {
				rnReports = verify.Sampled(impls[2], orc, largest, rn, *samples, common.Seed, common.Workers)
				allReports = verify.Sampled(impls[2], orc, largest, col.Modes, *samples, common.Seed+1, common.Workers)
			}
			fmt.Printf(" | %-4s %-4s %-8s", mark(smallOK), mark(allCorrect(rnReports)), mark(allCorrect(allReports)))
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("-", 20+22*len(columns)))
	fmt.Println("Y = correctly rounded for all checked inputs, X = wrong results found.")
	fmt.Println("Comparator substitutes compute in the scaled-double working format F49,10 (see DESIGN.md).")
	if err := common.FinishRun(rec, "rlibm-table2"); err != nil {
		log.Fatal(err)
	}
}

func allCorrect(reports []verify.Report) bool {
	for _, r := range reports {
		if !r.Correct() {
			return false
		}
	}
	return true
}
