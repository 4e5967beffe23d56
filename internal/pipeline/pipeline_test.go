package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/fault"
)

// testCodec encodes a []float64 payload; enough structure to exercise the
// framing, the stage runner and the corruption paths.
var testCodec = Codec[[]float64]{
	Name:    "test-vector",
	Version: 1,
	Encode: func(e *Enc, v []float64) {
		e.Int(len(v))
		for _, x := range v {
			e.F64(x)
		}
	},
	Decode: func(d *Dec) ([]float64, error) {
		n := d.Len()
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, d.F64())
		}
		return out, d.Err()
	},
}

func testKey() Key { return Key{Func: "exp2", Stage: "enumerate", Fingerprint: "abc123"} }

func TestRunColdThenWarm(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, math.Pi, -0.5, math.Inf(1)}
	computes := 0
	compute := func(context.Context) ([]float64, error) { computes++; return want, nil }

	got, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute)
	if err != nil || hit {
		t.Fatalf("cold run: hit=%v err=%v", hit, err)
	}
	if len(got) != len(want) {
		t.Fatalf("cold value: %v", got)
	}
	got, hit, err = Run(context.Background(), st, testKey(), testCodec, nil, compute)
	if err != nil || !hit {
		t.Fatalf("warm run: hit=%v err=%v", hit, err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("warm value[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if computes != 1 {
		t.Errorf("compute ran %d times, want 1", computes)
	}
	ev := st.Events()
	if len(ev) != 2 || ev[0].Hit || !ev[1].Hit {
		t.Errorf("events: %+v", ev)
	}
}

func TestRunNilStore(t *testing.T) {
	v, hit, err := Run(context.Background(), nil, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return []float64{7}, nil })
	if err != nil || hit || len(v) != 1 {
		t.Fatalf("nil store: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestRunComputeError(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not have been cached.
	if _, hit, _ := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return []float64{1}, nil }); hit {
		t.Fatal("failed compute was cached")
	}
}

// artifactFile returns the single .art file below dir.
func artifactFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".art" {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no artifact under %s (err=%v)", dir, err)
	}
	return found
}

func TestRunCorruptArtifactRegenerates(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if _, _, err := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	path := artifactFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return want, nil })
	if err != nil || hit {
		t.Fatalf("corrupt artifact: hit=%v err=%v", hit, err)
	}
	if len(got) != 3 {
		t.Fatalf("regenerated value: %v", got)
	}
	// The regeneration rewrote a valid artifact.
	if _, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return want, nil }); err != nil || !hit {
		t.Fatalf("after regeneration: hit=%v err=%v", hit, err)
	}
}

func TestKeyComponentsAddressDistinctArtifacts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testKey()
	variants := []Key{
		{Func: "exp", Stage: base.Stage, Fingerprint: base.Fingerprint},
		{Func: base.Func, Stage: "solve", Fingerprint: base.Fingerprint},
		{Func: base.Func, Stage: base.Stage, Fingerprint: "different"},
	}
	seen := map[string]bool{st.path(base, "c", 1): true}
	for _, k := range variants {
		p := st.path(k, "c", 1)
		if seen[p] {
			t.Errorf("key %+v collides", k)
		}
		seen[p] = true
	}
	if seen[st.path(base, "other-codec", 1)] || seen[st.path(base, "c", 2)] {
		t.Error("codec identity does not separate addresses")
	}
}

// TestSealUnsealProperty: every sealed payload unseals to itself, and any
// single bit flip or truncation is rejected with ErrCorrupt — never a
// silent partial read. testing/quick drives the seed.
func TestSealUnsealProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, rng.Intn(256))
		rng.Read(payload)
		sealed := Seal("prop", 3, payload)

		got, err := Unseal(sealed, "prop", 3)
		if err != nil || len(got) != len(payload) {
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		// Bit flip anywhere → ErrCorrupt.
		flipped := append([]byte(nil), sealed...)
		flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
		if _, err := Unseal(flipped, "prop", 3); !errors.Is(err, ErrCorrupt) {
			return false
		}
		// Truncation anywhere → ErrCorrupt.
		if _, err := Unseal(sealed[:rng.Intn(len(sealed))], "prop", 3); !errors.Is(err, ErrCorrupt) {
			return false
		}
		// Wrong codec identity → ErrCorrupt.
		if _, err := Unseal(sealed, "other", 3); !errors.Is(err, ErrCorrupt) {
			return false
		}
		if _, err := Unseal(sealed, "prop", 4); !errors.Is(err, ErrCorrupt) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncDecProperty: the primitive encoders round-trip exactly (floats by
// bits, including NaN and signed zero) and Done rejects trailing bytes.
func TestEncDecProperty(t *testing.T) {
	prop := func(u uint64, i int64, f float64, b bool) bool {
		var e Enc
		e.U32(uint32(u))
		e.U64(u)
		e.I64(i)
		e.Int(int(i))
		e.F64(f)
		e.Bool(b)
		d := NewDec(e.Bytes())
		ok := d.U32() == uint32(u) && d.U64() == u && d.I64() == i && d.Int() == int(i) &&
			math.Float64bits(d.F64()) == math.Float64bits(f) && d.Bool() == b
		return ok && d.Done() == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// Specials that quick never generates.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		var e Enc
		e.F64(f)
		d := NewDec(e.Bytes())
		if math.Float64bits(d.F64()) != math.Float64bits(f) {
			t.Errorf("%v does not round-trip", f)
		}
	}
	// Trailing garbage is corruption.
	var e Enc
	e.U64(1)
	d := NewDec(append(e.Bytes(), 0xff))
	d.U64()
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err = %v", err)
	}
}

func TestDecLenGuards(t *testing.T) {
	var e Enc
	e.Int(1 << 50) // absurd length
	d := NewDec(e.Bytes())
	if n := d.Len(); n != 0 {
		t.Errorf("Len = %d", n)
	}
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
	var e2 Enc
	e2.Int(-1)
	d2 := NewDec(e2.Bytes())
	d2.Len()
	if err := d2.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("negative length err = %v", err)
	}
}

func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestRunCanceledContext(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = Run(ctx, st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) {
		t.Error("compute ran despite cancellation")
		return nil, nil
	})
	if fault.CodeOf(err) != fault.CodeCanceled {
		t.Fatalf("err = %v, want CodeCanceled fault", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cause must unwrap to context.Canceled")
	}
	var fe *fault.Error
	if errors.As(err, &fe); fe.Stage != "enumerate" || fe.Func != "exp2" {
		t.Errorf("fault context = %+v", fe)
	}
}

// TestStoreInjectedFaults drives every store-level injection site through
// Run and asserts the stage recovers with the correct value while the
// store stays audit-clean.
func TestStoreInjectedFaults(t *testing.T) {
	want := []float64{4, 5, 6}
	compute := func(context.Context) ([]float64, error) { return want, nil }
	for _, tc := range []struct {
		site fault.Site
		warm bool // fault injected on the warm (read) path
	}{
		{fault.SiteStoreWrite, false},
		{fault.SiteStoreWriteShort, false},
		{fault.SiteStoreRead, true},
		{fault.SiteStoreBitFlip, true},
	} {
		t.Run(string(tc.site), func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			plan := fault.NewPlan().At(tc.site, 1)
			st.SetFaults(plan)
			// Cold run: write-path faults fire here.
			v, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute)
			if err != nil || hit || len(v) != len(want) {
				t.Fatalf("cold: v=%v hit=%v err=%v", v, hit, err)
			}
			// Second run: read-path faults fire here; either way the
			// value must come back correct without error.
			v, _, err = Run(context.Background(), st, testKey(), testCodec, nil, compute)
			if err != nil || len(v) != len(want) {
				t.Fatalf("second: v=%v err=%v", v, err)
			}
			for i := range want {
				if v[i] != want[i] {
					t.Fatalf("value[%d] = %v, want %v", i, v[i], want[i])
				}
			}
			if plan.Count(tc.site) == 0 {
				t.Fatalf("site %s never probed", tc.site)
			}
			// A third, fault-free run must hit the (re)written artifact.
			st.SetFaults(nil)
			if _, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute); err != nil || !hit {
				t.Fatalf("third: hit=%v err=%v", hit, err)
			}
			if err := st.Audit(); err != nil {
				t.Fatalf("store audit after %s: %v", tc.site, err)
			}
		})
	}
}

func TestAuditFlagsTempAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), st, testKey(), testCodec, nil, func(context.Context) ([]float64, error) { return []float64{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Audit(); err != nil {
		t.Fatalf("clean store: %v", err)
	}
	// A lingering temp file fails the audit.
	tmp := filepath.Join(dir, "exp2", "solve-abc.art.tmp123")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Audit(); err == nil {
		t.Error("audit missed temp file")
	}
	os.Remove(tmp)
	// A truncated artifact fails the audit.
	path := artifactFile(t, dir)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Audit(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("audit of truncated artifact: %v", err)
	}
}

// TestSealLayout pins the frame byte for byte (magic, name length and
// name, version, payload length, payload, then the SHA-256 of all of it)
// and that Seal builds it in one allocation of exactly its final size.
func TestSealLayout(t *testing.T) {
	payload := make([]byte, 1000)
	rand.New(rand.NewSource(7)).Read(payload)
	var want []byte
	want = append(want, "RLBMART1"...)
	want = binary.LittleEndian.AppendUint64(want, uint64(len("codec")))
	want = append(want, "codec"...)
	want = binary.LittleEndian.AppendUint32(want, 5)
	want = binary.LittleEndian.AppendUint64(want, uint64(len(payload)))
	want = append(want, payload...)
	sum := sha256.Sum256(want)
	want = append(want, sum[:]...)

	got := Seal("codec", 5, payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed frame differs from the documented layout")
	}
	if cap(got) != len(got) {
		t.Errorf("cap = %d, len = %d: frame not sized once", cap(got), len(got))
	}
	if allocs := testing.AllocsPerRun(10, func() { Seal("codec", 5, payload) }); allocs != 1 {
		t.Errorf("Seal allocates %v times, want 1", allocs)
	}
}

func TestCheckFrame(t *testing.T) {
	sealed := Seal("any-codec", 9, []byte{1, 2, 3})
	if err := CheckFrame(sealed); err != nil {
		t.Fatalf("valid frame: %v", err)
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x10
	if err := CheckFrame(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped frame: %v", err)
	}
	if err := CheckFrame(sealed[:4]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short frame: %v", err)
	}
}
