// Command rlibm-check verifies one function of one library implementation
// against the arbitrary-precision oracle over a chosen format, exhaustively
// or by sampling, for any subset of rounding modes. The generated libraries
// (prog, rlibm-all) are checked through their compiled serving kernels, the
// code libm and rlibm-serve run; a format wider than their tables is an
// error.
//
//	rlibm-check -func exp -format F19,8 -modes rn,rz
//	rlibm-check -func log2 -lib crlibm -format F25,8 -samples 1000000
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
		fnName   = flag.String("func", "exp", "function to check")
		lib      = flag.String("lib", "prog", "library: prog, rlibm-all, glibc, intel, crlibm")
		format   = flag.String("format", "F16,8", "target format, e.g. F19,8")
		modes    = flag.String("modes", "rn,ra,rz,ru,rd", "comma-separated rounding modes")
		samples  = flag.Int("samples", 0, "sample count (0 = exhaustive)")
		generate = flag.Bool("generate", false, "generate the checked RLIBM library through the staged pipeline instead of using the emitted internal/libm tables")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	rec := common.NewRecorder()
	seed, workers := &common.Seed, &common.Workers

	fn, err := bigmath.ParseFunc(*fnName)
	if err != nil {
		log.Fatal(err)
	}
	f, err := fp.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}
	var ms []fp.Mode
	for _, name := range strings.Split(*modes, ",") {
		m, err := fp.ParseMode(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		ms = append(ms, m)
	}

	libs, done, err := common.Libraries(*generate, rec)
	if err != nil {
		log.Fatal(err)
	}
	defer done()
	var impl verify.Impl
	for _, l := range libs.List() {
		if l.Name == *lib {
			if impl, err = l.Impl(fn, f); err != nil {
				log.Fatal(err)
			}
		}
	}
	if impl == nil {
		log.Fatalf("unknown library %q", *lib)
	}

	orc := oracle.New(fn)
	var reports []verify.Report
	if *samples > 0 {
		reports = verify.Sampled(impl, orc, f, ms, *samples, *seed, *workers)
	} else {
		reports = verify.Exhaustive(impl, orc, f, ms, *workers)
	}
	bad := false
	for _, r := range reports {
		fmt.Printf("%s(%v) %s\n", fn, f, r)
		if !r.Correct() {
			bad = true
			for i, b := range r.Mismatches {
				if i >= 8 {
					fmt.Printf("  … %d more\n", len(r.Mismatches)-8)
					break
				}
				x := f.Decode(b)
				fmt.Printf("  input %#x (%g): got %#x want %#x\n",
					b, x, impl.Bits(x, f, r.Mode), verify.Want(orc, x, f, r.Mode))
			}
		}
	}
	st := orc.Stats()
	fmt.Printf("oracle paths: %+v\n", st)
	st.RecordTo(rec.Root())
	if err := common.FinishRun(rec, "rlibm-check"); err != nil {
		log.Print(err)
		bad = true
	}
	stopProfiles()
	if bad {
		os.Exit(1)
	}
}
