// Package repro is a Go reproduction of "Progressive Polynomial
// Approximations for Fast Correctly Rounded Math Libraries" (PLDI 2022):
// the RLIBM-Prog progressive polynomial generator, the generated correctly
// rounded math library, the RLibm-All baseline and the double-precision
// comparator substitutes, together with the harnesses regenerating every
// table and figure of the paper's evaluation. See README.md and DESIGN.md;
// EXPERIMENTS.md records measured results against the paper's.
//
// # Commands
//
// Everything is driven through the commands under cmd/, which share one
// flag surface (internal/cli: -store, the one store selector, plus -bits,
// -seed, -workers, -shard, -timeout and the observability flags):
//
//   - rlibm-gen — the generator: enumerate → reduce → solve → verify for
//     one or more functions, emitting Go coefficient tables (-emit) for
//     the progressive library or the RLibm-All baseline (-baseline).
//   - rlibm-check — re-verify an emitted library exhaustively against the
//     oracle, per format and rounding mode.
//   - rlibm-table1, rlibm-table2, rlibm-fig4 — reproduce the paper's
//     Table 1 (polynomial properties and memory), Table 2 (correctly
//     rounded results per library) and Figure 4 (speedups).
//   - rlibm-store — serve an artifact store over TCP to cooperating
//     processes, optionally byte-budgeted (-store-max-bytes).
//   - rlibm-serve — serve the generated library itself: every function ×
//     format × mode over HTTP/JSON and a framed bulk endpoint, with
//     bounded admission, clean drain and verified hot reload.
//   - rlibm-campaign — the paper-scale distributed sweep: plans every
//     (function, format, mode) cell as a resumable manifest, fans out
//     shard workers against a shared store, survives peer death, and
//     aggregates campaign_report.json plus BENCH_campaign.json.
//   - rlibm-lint — repo-specific static analysis enforcing the
//     determinism, precision and concurrency contracts (see below).
//
// # The mathematics (paper sections 2–5)
//
//   - internal/fp — parameterized floating-point formats F(bits,expBits),
//     the five IEEE rounding modes and round-to-odd.
//   - internal/bigmath — arbitrary-precision elementary functions (the
//     MPFR substitute) for the ten generated functions.
//   - internal/oracle — the correctly rounded oracle, in two phases: a
//     double-double quick phase (internal/dd), then Ziv precision
//     escalation over bigmath for the queries it cannot decide.
//   - internal/interval — per-input rounding intervals, the round-to-odd
//     construction that makes one polynomial serve all five modes.
//   - internal/reduction — production range reduction, output
//     compensation and its inverse, replayed bit-for-bit during
//     generation so implementation rounding is absorbed into constraints.
//   - internal/lp — float64 simplex with an exact rational fallback (the
//     SoPlex substitute).
//   - internal/sampling — weighted random sampling
//     (Efraimidis–Spirakis) for Clarkson's algorithm.
//   - internal/clarkson — the randomized LP solver (paper Algorithms
//     1–2) with the seed-rotation/exact/degradation rescue ladder.
//   - internal/poly — polynomial evaluation helpers shared by generator
//     and library.
//   - internal/remez — Remez minimax generator for the §2.3 motivation.
//
// # The pipeline
//
//   - internal/gen — the staged generator: constraint enumeration,
//     reduction, progressive piece solving (distributable as solve-shard
//     work units), result assembly and Go emission.
//   - internal/verify — exhaustive per-level verification and the repair
//     pass; report slices merge deterministically, which is what makes
//     verification distributable.
//   - internal/pipeline — the content-addressed artifact store: sealed
//     frames, typed codecs, stage runner, disk/memory/remote backends,
//     the TCP store protocol, and the LRU eviction wrapper.
//   - internal/parallel — the deterministic worker pool; output is
//     bit-identical for every worker count.
//   - internal/cli — shared flags, store selection, the staged
//     generate-and-verify entry points (solo and sharded).
//   - internal/campaign — paper-scale campaigns: plan/manifest,
//     per-peer workers, the multi-peer driver and report aggregation.
//   - internal/fault — the typed error taxonomy and deterministic fault
//     injection behind every failure-model test.
//   - internal/obs — spans, the deterministic counter taxonomy and run
//     reports; write-only on the generation path.
//   - internal/report — run-report assembly shared by the commands.
//
// # The generated library and serving
//
//   - internal/libm — the generated progressive library and RLibm-All
//     baseline (zz_*.go are emitted tables), plus per-call Eval.
//   - internal/eval — compiled batch kernels: per-(function, format,
//     mode) evaluation with truncated progressive dispatch, bit-identical
//     to per-call Eval.
//   - internal/serve — the serving service: admission control, drain,
//     panic isolation, verified hot reload, both endpoints.
//   - internal/dd, internal/baseline — double-double kernels and the
//     glibc/Intel/CR-LIBM comparator substitutes for Figure 4.
//
// # Static analysis
//
//   - internal/analysis — the rlibm-lint analyzers (map-iteration order,
//     seeded randomness, wall-clock isolation, float comparison,
//     big.Float precision, pool aliasing, cache-key completeness, typed
//     panics, observability leaks, hot-path allocation, and the
//     interprocedural nondetflow/ctxflow/evalhot passes).
package repro
