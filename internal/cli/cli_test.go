package cli_test

import (
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/libm"
)

func TestValidateRejectsBadWorkers(t *testing.T) {
	for _, workers := range []int{0, -1, -8} {
		c := &cli.Common{Workers: workers, Bits: 16}
		err := c.Validate()
		if err == nil {
			t.Errorf("Validate accepted -workers=%d", workers)
			continue
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers=%d error does not name the flag: %v", workers, err)
		}
	}
	c := &cli.Common{Workers: 1, Bits: 16}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected a serial run: %v", err)
	}
}

func TestValidateRejectsBadBits(t *testing.T) {
	c := &cli.Common{Workers: 1, Bits: 1}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "-bits") {
		t.Errorf("Validate(-bits=1) = %v, want an error naming -bits", err)
	}
}

func TestValidateRejectsNegativeSeed(t *testing.T) {
	for _, seed := range []int64{-1, -42} {
		c := &cli.Common{Workers: 1, Bits: 16, Seed: seed}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "-seed") {
			t.Errorf("Validate(-seed=%d) = %v, want an error naming -seed", seed, err)
		}
	}
	c := &cli.Common{Workers: 1, Bits: 16, Seed: 0}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected -seed=0: %v", err)
	}
}

func TestValidateRejectsNegativeTimeout(t *testing.T) {
	c := &cli.Common{Workers: 1, Bits: 16, Timeout: -time.Second}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Errorf("Validate(-timeout=-1s) = %v, want an error naming -timeout", err)
	}
	c = &cli.Common{Workers: 1, Bits: 16, Timeout: time.Minute}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected a positive timeout: %v", err)
	}
}

// TestValidateRejectsSubPollTimeout: a positive deadline shorter than one
// claim-poll interval (50ms) cannot survive a single distributed-claim
// wait, so Validate rejects it with the unified diagnostic; the interval
// itself and zero (deadline disabled) are accepted.
func TestValidateRejectsSubPollTimeout(t *testing.T) {
	cases := []struct {
		timeout time.Duration
		ok      bool
	}{
		{0, true},
		{time.Nanosecond, false},
		{time.Millisecond, false},
		{49 * time.Millisecond, false},
		{50 * time.Millisecond, true},
		{51 * time.Millisecond, true},
		{time.Second, true},
	}
	for _, tc := range cases {
		c := &cli.Common{Workers: 1, Bits: 16, Timeout: tc.timeout}
		err := c.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("Validate(-timeout=%v) = %v, want accepted", tc.timeout, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Validate accepted -timeout=%v, want rejection below the 50ms poll interval", tc.timeout)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "invalid -timeout ") || !strings.Contains(msg, "must be at least ") {
			t.Errorf("message %q does not follow the unified \"invalid -flag value: must be at least bound\" shape", msg)
		}
		if !strings.Contains(msg, "50ms") {
			t.Errorf("message %q does not name the 50ms poll interval", msg)
		}
	}
}

func TestContextHonorsTimeout(t *testing.T) {
	c := &cli.Common{Workers: 1, Bits: 16, Timeout: time.Millisecond}
	ctx, cancel := c.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Errorf("Context with -timeout set has no deadline")
	}
	c = &cli.Common{Workers: 1, Bits: 16}
	ctx, cancel = c.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Errorf("Context without -timeout has a deadline")
	}
}

func TestRegisterParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := cli.Register(fs)
	args := []string{"-workers", "3", "-seed", "42", "-bits", "14", "-cache-dir", "/tmp/x", "-no-cache",
		"-timeout", "5s", "-v", "-report", "-cpuprofile", "/tmp/cpu.pprof", "-memprofile", "/tmp/mem.pprof"}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Workers != 3 || c.Seed != 42 || c.Bits != 14 || c.CacheDir != "/tmp/x" || !c.NoCache {
		t.Errorf("parsed values %+v do not match %v", c, args)
	}
	if c.Timeout != 5*time.Second || !c.Verbose || !c.Report ||
		c.CPUProfile != "/tmp/cpu.pprof" || c.MemProfile != "/tmp/mem.pprof" {
		t.Errorf("parsed observability values %+v do not match %v", c, args)
	}
}

// TestValidateMessageShape pins the unified diagnostic format across the
// five commands: every rejection reads
// "invalid -flag value: must be at least bound (hint)".
func TestValidateMessageShape(t *testing.T) {
	cases := []struct {
		name   string
		common cli.Common
		prefix string
	}{
		{"workers", cli.Common{Workers: 0, Bits: 16}, "invalid -workers 0: "},
		{"seed", cli.Common{Workers: 1, Bits: 16, Seed: -3}, "invalid -seed -3: "},
		{"bits", cli.Common{Workers: 1, Bits: 1}, "invalid -bits 1: "},
		{"timeout", cli.Common{Workers: 1, Bits: 16, Timeout: -time.Second}, "invalid -timeout -1s: "},
		{"timeout", cli.Common{Workers: 1, Bits: 16, Timeout: 10 * time.Millisecond}, "invalid -timeout 10ms: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.common.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted an invalid -%s", tc.common, tc.name)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, tc.prefix) {
				t.Errorf("message %q does not start with %q", msg, tc.prefix)
			}
			if !strings.Contains(msg, "must be at least ") {
				t.Errorf("message %q lacks the \"must be at least\" clause", msg)
			}
		})
	}
}

func TestStoreDisabled(t *testing.T) {
	for _, c := range []*cli.Common{
		{NoCache: true, CacheDir: t.TempDir()},
		{CacheDir: ""},
	} {
		st, err := c.Store()
		if err != nil {
			t.Errorf("Store(%+v): %v", c, err)
		}
		if st != nil {
			t.Errorf("Store(%+v) returned a live store; want nil (caching disabled)", c)
		}
	}
	c := &cli.Common{CacheDir: t.TempDir()}
	st, err := c.Store()
	if err != nil || st == nil {
		t.Errorf("Store with a cache dir: store=%v err=%v", st, err)
	}
}

func TestParseLevels(t *testing.T) {
	levels, err := cli.ParseLevels("F10,8:F12,8")
	if err != nil {
		t.Fatalf("ParseLevels: %v", err)
	}
	if len(levels) != 2 || levels[0].Bits() != 10 || levels[1].Bits() != 12 {
		t.Errorf("ParseLevels(\"F10,8:F12,8\") = %v", levels)
	}
	for _, bad := range []string{"", ":", "F10,8:junk", "nope"} {
		if _, err := cli.ParseLevels(bad); err == nil {
			t.Errorf("ParseLevels(%q) succeeded; want error", bad)
		}
	}
}

// The library list behind rlibm-check -lib and the Table 2 columns: the
// generated libraries answer through their serving kernels with libm's
// bits, and a format wider than their tables is eval.ErrTooWide rather
// than the largest level evaluated on inputs outside its format.
func TestLibrariesServeKernels(t *testing.T) {
	c := cli.Register(flag.NewFlagSet("test", flag.ContinueOnError))
	libs, done, err := c.Libraries(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	var names, columns []string
	for _, l := range libs.List() {
		names = append(names, l.Name)
		columns = append(columns, l.Column)
	}
	if got := strings.Join(names, ","); got != "prog,glibc,intel,crlibm,rlibm-all" {
		t.Errorf("library names = %s", got)
	}
	if got := strings.Join(columns, ","); got != "RLIBM-Prog,glibc-sub,intel-sub,crlibm-sub,RLibm-All" {
		t.Errorf("Table 2 columns = %s", got)
	}
	fn := bigmath.Log2
	for _, l := range []cli.Library{libs.List()[0], libs.List()[4]} {
		if _, err := l.Impl(fn, fp.MustFormat(25, 8)); !errors.Is(err, eval.ErrTooWide) {
			t.Errorf("%s at F25,8: %v, want eval.ErrTooWide", l.Name, err)
		}
	}
	prog, err := libs.List()[0].Impl(fn, fp.Bfloat16)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 3, 0x1p-70, 0x1.8p100} {
		want, err := libm.Eval(fn, x, fp.Bfloat16, fp.RoundTowardZero)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Bits(x, fp.Bfloat16, fp.RoundTowardZero); got != want {
			t.Errorf("prog log2(%v) = %#x, libm %#x", x, got, want)
		}
	}
}
