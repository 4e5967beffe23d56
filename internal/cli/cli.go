// Package cli holds the flag plumbing and pipeline wiring shared by the
// five rlibm commands: the common
// -workers/-seed/-bits/-cache-dir/-no-cache/-timeout flag set (previously
// copied four ways), the observability flags (-v, -report, -cpuprofile,
// -memprofile) and their run-report emission, artifact-store opening, and
// the staged generate+verify entry point that lets sibling commands reuse
// one cache — rlibm-table1 → table2 → fig4 enumerate each function exactly
// once.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// Common holds the flag values shared by every rlibm command.
type Common struct {
	// Workers bounds worker goroutines; generated output is bit-identical
	// for every value. Must be ≥ 1 (Validate rejects silent defaulting).
	Workers int
	// Seed drives all randomness; runs are reproducible. Must be ≥ 0
	// (negative seeds are reserved: the rescue ladder XORs published salts
	// into the seed, and a sign bit would silently alias rotated streams).
	Seed int64
	// Bits is the width of the largest representation.
	Bits int
	// CacheDir roots the content-addressed artifact store; empty disables
	// caching, as does NoCache. Kept as an alias for -store dir:PATH.
	CacheDir string
	NoCache  bool
	// StoreURL selects the artifact-store backend: "dir:PATH" (atomic-
	// rename on-disk store), "mem:" (ephemeral in-memory store) or
	// "tcp://host:port" (remote store served by rlibm-store). Empty means
	// "dir:" + CacheDir — the historical behavior.
	StoreURL string
	// ShardSpec is the -shard flag value "k/n": this process computes
	// slice k of the n-way distributed work partition (claims and work
	// units published through the shared store). Empty means solo.
	ShardSpec string
	// StoreMaxBytes, when positive, wraps the local (dir: or mem:) store
	// in an LRU eviction policy with this byte budget; claim artifacts
	// are pinned. 0 disables eviction. Remote stores evict server-side
	// (rlibm-store -max-bytes), so combining this with tcp:// is
	// rejected.
	StoreMaxBytes int64
	// store is the backend opened by Store(), retained so FinishRun can
	// record remote transport counters and CloseStore can close it.
	store pipeline.Store
	// Timeout, when positive, bounds the whole run: the Context this
	// package hands to the pipeline is canceled after it and every stage
	// returns a typed canceled fault, leaving the cache resumable.
	Timeout time.Duration
	// Verbose enables progress logging and the rendered observability
	// span tree at exit.
	Verbose bool
	// Report writes a versioned run report (report.json) next to the
	// artifact cache at exit; see ReportPath.
	Report bool
	// CPUProfile and MemProfile name pprof output files (empty disables);
	// see StartProfiles.
	CPUProfile string
	MemProfile string
}

// Register installs the shared flags into fs (use flag.CommandLine for a
// command's top level) and returns the value struct they fill.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", runtime.NumCPU(),
		"worker count for enumeration, solving and verification (generated output is identical for any value)")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	fs.IntVar(&c.Bits, "bits", gen.DefaultLargestBits,
		"width of the largest representation (paper: 32; see DESIGN.md)")
	fs.StringVar(&c.CacheDir, "cache-dir", DefaultCacheDir(),
		"artifact cache directory (empty disables caching; alias for -store dir:PATH)")
	fs.BoolVar(&c.NoCache, "no-cache", false, "disable the artifact cache")
	fs.StringVar(&c.StoreURL, "store", "",
		"artifact store URL: dir:PATH, mem:, or tcp://host:port (default: dir:<cache-dir>)")
	fs.StringVar(&c.ShardSpec, "shard", "",
		"distributed work slice k/n: this process claims and computes slice k of n (requires a shared -store)")
	fs.Int64Var(&c.StoreMaxBytes, "store-max-bytes", 0,
		"evict least-recently-used artifacts once the local store exceeds this many bytes (0 disables; for tcp:// stores use rlibm-store -max-bytes)")
	fs.DurationVar(&c.Timeout, "timeout", 0,
		"abort the run after this duration (0 disables); an aborted run leaves the cache resumable")
	fs.BoolVar(&c.Verbose, "v", false,
		"verbose progress; also renders the observability span tree at exit")
	fs.BoolVar(&c.Report, "report", false,
		"write a run report (report.json) next to the artifact cache at exit")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	return c
}

// Validate rejects unusable flag combinations with a clear error instead
// of silently substituting defaults. Every message follows one shape —
// "invalid -flag value: must be at least bound (hint)" — so scripts and
// users see uniform diagnostics across all five commands.
func (c *Common) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("invalid -workers %d: must be at least 1 (use -workers 1 for a serial run)", c.Workers)
	}
	if c.Seed < 0 {
		return fmt.Errorf("invalid -seed %d: must be at least 0 (negative seeds are reserved for rescue-ladder salting)", c.Seed)
	}
	if c.Bits < 2 {
		return fmt.Errorf("invalid -bits %d: must be at least 2", c.Bits)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("invalid -timeout %v: must be at least 0 (0 disables the deadline)", c.Timeout)
	}
	// A deadline shorter than one claim-poll interval cannot even survive
	// a single distributed-claim wait: every sharded run would die with a
	// spurious cancel instead of a diagnostic. Reject it up front.
	if c.Timeout > 0 && c.Timeout < gen.ClaimPollInterval {
		return fmt.Errorf("invalid -timeout %v: must be at least %v, one claim poll interval (0 disables the deadline)",
			c.Timeout, gen.ClaimPollInterval)
	}
	if _, err := gen.ParseShard(c.ShardSpec); err != nil {
		return err
	}
	scheme, _, err := splitStoreURL(c.StoreURL)
	if err != nil {
		return err
	}
	if c.StoreMaxBytes < 0 {
		return fmt.Errorf("invalid -store-max-bytes %d: must be at least 0 (0 disables eviction)", c.StoreMaxBytes)
	}
	// A remote client cannot evict for the server: its view of the store
	// is one connection among many, so a client-side budget would evict
	// peers' artifacts on partial information. Eviction for tcp:// stores
	// belongs on the serving side.
	if c.StoreMaxBytes > 0 && scheme == "tcp" {
		return fmt.Errorf("invalid -store-max-bytes %d: must be at least 0 and used with a local store; a tcp:// store evicts server-side (rlibm-store -max-bytes)", c.StoreMaxBytes)
	}
	return nil
}

// Shard returns the parsed -shard value; Validate has already rejected
// malformed specs.
func (c *Common) Shard() gen.Shard {
	s, _ := gen.ParseShard(c.ShardSpec)
	return s
}

// Context returns the run context selected by the flags: background, or a
// deadline c.Timeout from now. The caller must invoke cancel (deferred)
// regardless of which was returned.
func (c *Common) Context() (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(context.Background(), c.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Logf returns the progress logger selected by -v: log.Printf when
// verbose, nil otherwise (the pipeline treats nil as silent).
func (c *Common) Logf() func(string, ...interface{}) {
	if c.Verbose {
		return log.Printf
	}
	return nil
}

// NewRecorder returns a live observability recorder when -report or -v
// asked for one, and nil otherwise — the disabled layer, where every obs
// write is a nil-check no-op and generated coefficients are untouched
// either way. Wire the root span into the run context with
// obs.WithSpan(ctx, rec.Root()) and hand the recorder to FinishRun.
func (c *Common) NewRecorder() *obs.Recorder {
	if !c.Report && !c.Verbose {
		return nil
	}
	return obs.New("run")
}

// ReportPath returns where -report writes report.json: next to the
// artifact cache when the store is directory-backed, or the working
// directory otherwise (caching disabled, memory store, remote store).
func (c *Common) ReportPath() string {
	if c.NoCache || c.CacheDir == "" {
		return "report.json"
	}
	if scheme, _, _ := splitStoreURL(c.StoreURL); scheme == "mem" || scheme == "tcp" {
		return "report.json"
	}
	return filepath.Join(c.CacheDir, "report.json")
}

// FinishRun emits the run's observability output for command: the rendered
// span tree on stderr with -v, and report.json at ReportPath with -report.
// A nil recorder (observability off) is a no-op.
func (c *Common) FinishRun(rec *obs.Recorder, command string) error {
	if rec == nil {
		return nil
	}
	if rs, ok := c.store.(*pipeline.RemoteStore); ok {
		st := rs.Stats()
		root := rec.Root()
		root.Add(obs.CtrRemoteRoundTrips, st.RoundTrips)
		root.Add(obs.CtrRemoteRetries, st.Retries)
		root.Add(obs.CtrRemoteBytesSent, st.BytesSent)
		root.Add(obs.CtrRemoteBytesRecv, st.BytesRecv)
	}
	if es, ok := c.store.(*pipeline.EvictingStore); ok {
		st := es.Stats()
		root := rec.Root()
		root.Gauge(obs.GaugeStoreEvictions, st.Evictions)
		root.Gauge(obs.GaugeStoreBytesLive, st.BytesLive)
	}
	rec.Root().End()
	rep := rec.Report()
	rep.Command = command
	rep.Meta = map[string]string{
		"workers": strconv.Itoa(c.Workers),
		"seed":    strconv.FormatInt(c.Seed, 10),
		"bits":    strconv.Itoa(c.Bits),
	}
	if c.Verbose {
		rep.Render(os.Stderr)
	}
	if c.Report {
		path := c.ReportPath()
		if err := rep.WriteFile(path); err != nil {
			return fmt.Errorf("write run report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "report: %s\n", path)
	}
	return nil
}

// StartProfiles starts the collectors selected by -cpuprofile and
// -memprofile and returns a stop function: it stops the CPU profile and
// writes the heap profile. Call stop on every successful exit path (a
// deferred call is skipped by os.Exit). Profiling lives entirely outside
// the coefficient path and never alters generated output.
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpuF *os.File
	if c.CPUProfile != "" {
		cpuF, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("create -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("start -cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				log.Printf("create -memprofile: %v", err)
				return
			}
			runtime.GC() // flush recent allocations into the heap profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Printf("write -memprofile: %v", err)
			}
			f.Close()
		}
	}, nil
}

// DefaultCacheDir returns the default artifact cache location: the user
// cache directory when the OS provides one, else a repo-local fallback.
func DefaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "rlibm-repro")
	}
	return ".rlibm-cache"
}

// splitStoreURL validates and splits a -store URL into scheme and rest.
// The empty URL is valid (it defers to -cache-dir) and splits to ("", "").
func splitStoreURL(url string) (scheme, rest string, _ error) {
	switch {
	case url == "":
		return "", "", nil
	case strings.HasPrefix(url, "dir:"):
		if rest = strings.TrimPrefix(url, "dir:"); rest == "" {
			return "", "", fmt.Errorf("invalid -store %q: dir: needs a path (e.g. dir:/var/cache/rlibm)", url)
		}
		return "dir", rest, nil
	case url == "mem:" || url == "mem":
		return "mem", "", nil
	case strings.HasPrefix(url, "tcp://"), strings.HasPrefix(url, "tcp:"):
		rest = strings.TrimPrefix(strings.TrimPrefix(url, "tcp://"), "tcp:")
		if rest == "" {
			return "", "", fmt.Errorf("invalid -store %q: tcp: needs host:port (e.g. tcp://localhost:7070)", url)
		}
		return "tcp", rest, nil
	default:
		return "", "", fmt.Errorf("invalid -store %q: scheme must be dir:, mem: or tcp:", url)
	}
}

// Store opens the artifact store selected by the flags: -store dir:/mem:/
// tcp: when given, else the -cache-dir disk store. A nil store (with nil
// error) means caching is disabled; every staged entry point accepts that
// and computes in memory. The opened store is retained on c for FinishRun
// (remote transport counters) and CloseStore.
func (c *Common) Store() (pipeline.Store, error) {
	if c.NoCache {
		return nil, nil
	}
	if c.store != nil {
		return c.store, nil
	}
	scheme, rest, err := splitStoreURL(c.StoreURL)
	if err != nil {
		return nil, err
	}
	if scheme == "" {
		if c.CacheDir == "" {
			return nil, nil
		}
		scheme, rest = "dir", c.CacheDir
	}
	switch scheme {
	case "dir":
		st, oerr := pipeline.Open(rest)
		if oerr != nil {
			return nil, fmt.Errorf("open artifact cache: %w", oerr)
		}
		c.store = st
	case "mem":
		c.store = pipeline.NewMemStore()
	case "tcp":
		st, derr := pipeline.DialRemote(rest, 0)
		if derr != nil {
			return nil, derr
		}
		c.store = st
	}
	if c.StoreMaxBytes > 0 {
		// Validate rejected tcp + -store-max-bytes, so this only wraps
		// local backends.
		c.store = pipeline.NewEvictingStore(c.store, c.StoreMaxBytes)
	}
	return c.store, nil
}

// CloseStore releases the store opened by Store (a no-op for backends
// without a connection). Commands defer it after opening their store.
func (c *Common) CloseStore() {
	if rs, ok := c.store.(*pipeline.RemoteStore); ok {
		rs.Close()
	}
}

// BaselinePieces mirrors the RLibm-All sub-domain counts of Table 1,
// scaled to the default largest format (quartered relative to the paper's
// 32-bit counts, minimum 4).
func BaselinePieces(fn bigmath.Func) int {
	switch fn {
	case bigmath.Ln:
		return 256
	case bigmath.Log2, bigmath.Log10, bigmath.Exp, bigmath.Exp2:
		return 64
	case bigmath.Exp10:
		return 128
	case bigmath.Sinh, bigmath.Cosh:
		return 16
	default: // sinpi, cospi
		return 4
	}
}

// ProgressiveOptions builds the generation options of the paper's
// progressive library for the shared flags.
func (c *Common) ProgressiveOptions(progressiveRO bool, logf func(string, ...interface{})) gen.Options {
	return gen.Options{
		Levels:        gen.StandardLevels(c.Bits),
		ProgressiveRO: progressiveRO,
		Seed:          c.Seed,
		Workers:       c.Workers,
		Logf:          logf,
	}
}

// BaselineOptions builds the generation options of the RLibm-All piecewise
// baseline for the shared flags.
func (c *Common) BaselineOptions(fn bigmath.Func, logf func(string, ...interface{})) gen.Options {
	return gen.Options{
		Levels:      []fp.Format{fp.MustFormat(c.Bits, 8)},
		ForcePieces: BaselinePieces(fn),
		MaxTerms:    6,
		Seed:        c.Seed,
		Workers:     c.Workers,
		Logf:        logf,
	}
}

// GenerateVerified runs the full staged pipeline for fn — Enumerate,
// Reduce, Solve, then the exhaustive Verify/Repair pass — with every stage
// checkpointed in store (nil store: all in memory). The verify stage wraps
// the generation stages: a warm verify artifact skips generation and
// verification entirely and decodes the repaired result directly. patched
// reports how many inputs the repair pass added on a cold run (0 on a warm
// one — the patches are already baked into the artifact).
//
// This lives here rather than in internal/gen because the verify stage
// needs internal/verify, which itself imports gen.
func GenerateVerified(ctx context.Context, fn bigmath.Func, opt gen.Options, store pipeline.Store) (res *gen.Result, patched int, err error) {
	return GenerateVerifiedSharded(ctx, fn, opt, store, gen.Shard{})
}

// GenerateVerifiedSharded is GenerateVerified for one process of a
// distributed run: the exhaustive verification sweeps are split into
// shard.N content-addressed work units in the shared store (see
// repairSharded), the per-piece Clarkson solves become round-robin-dealt
// work units inside the Solve stage (gen.GenerateStagedSharded), this
// process claims and computes its share, and every process assembles the
// merged result bit-identically to a solo run. The solo shard (or a nil
// store) degrades to exactly GenerateVerified.
func GenerateVerifiedSharded(ctx context.Context, fn bigmath.Func, opt gen.Options, store pipeline.Store, shard gen.Shard) (res *gen.Result, patched int, err error) {
	orc := opt.Oracle
	if orc == nil {
		orc = oracle.New(fn)
		opt.Oracle = orc
	}
	if opt.Faults != nil {
		orc.SetFaults(opt.Faults)
	}
	// One observability span per generated function: the verify stage span
	// pipeline.Run opens below nests under it (and solve, reduce, enumerate
	// under that), and the oracle's query profile over the whole
	// generate+verify pass is attributed to the function as a before/after
	// Stats delta. The deltas are per-query deterministic, so the oracle.*
	// counters stay identical across worker counts.
	sp := obs.SpanFrom(ctx).Child(fn.String())
	defer sp.End()
	ctx = obs.WithSpan(ctx, sp)
	before := orc.Stats()
	res, _, err = pipeline.Run(ctx, store, gen.VerifyKey(fn, opt), gen.ResultCodec,
		pipeline.Logf(opt.Logf), func(ctx context.Context) (*gen.Result, error) {
			r, err := gen.GenerateStagedSharded(ctx, fn, opt, store, shard)
			if err != nil {
				return nil, err
			}
			patched, err = repairSharded(ctx, store, fn, opt, shard, r, orc)
			if err != nil {
				return nil, err
			}
			obs.SpanFrom(ctx).Add(obs.CtrVerifyPatched, int64(patched))
			return r, nil
		})
	orc.Stats().Sub(before).RecordTo(sp)
	return res, patched, err
}
