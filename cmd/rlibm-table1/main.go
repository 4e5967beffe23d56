// Command rlibm-table1 regenerates Table 1 of the paper from the generated
// libraries: per function, the RLibm-All baseline's sub-domain count,
// degree, term count and coefficient storage against RLIBM-Prog's pieces,
// per-representation degrees and term counts, special-input counts,
// coefficient storage and the memory reduction factor.
//
// By default the table is rendered from the emitted tables in internal/libm.
// With -generate it generates both libraries on the fly through the staged
// pipeline, checkpointing every stage in the shared artifact store
// (-store) — a warm cache skips the oracle-driven enumeration entirely,
// and sibling commands (rlibm-table2, rlibm-fig4 -generate) reuse the same
// artifacts.
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/report"
)

func main() {
	common := cli.Register(flag.CommandLine)
	generate := flag.Bool("generate", false, "generate the libraries through the staged pipeline instead of using the emitted internal/libm tables")
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
	if err := report.Table1(os.Stdout, bigmath.AllFuncs, libs.Prog, libs.Base); err != nil {
		log.Fatal(err)
	}
	if err := common.FinishRun(rec, "rlibm-table1"); err != nil {
		log.Fatal(err)
	}
}
