package gen

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/pipeline"
)

// The artifact codecs must satisfy two properties for the warm-cache
// bit-identity contract to hold: encode∘decode is the identity on payload
// bytes (a reloaded artifact re-encodes to exactly the bytes on disk), and
// any truncation or bit flip of a sealed artifact surfaces as an error —
// never as a silently partial value.

// specialF64s are adversarial float payloads: NaN, infinities and signed
// zero must round-trip bit-identically through the IEEE-bits encoding.
var specialF64s = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// pick returns a random float64, occasionally one of the special values.
func pick(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specialF64s[rng.Intn(len(specialF64s))]
	}
	return math.Float64frombits(rng.Uint64())
}

func randRawSet(rng *rand.Rand) *rawSet {
	nk, nl := rng.Intn(3), rng.Intn(3)
	rs := &rawSet{rawCount: rng.Intn(1000)}
	rs.raw = make([][][]rawConstraint, nk)
	for p := range rs.raw {
		rs.raw[p] = make([][]rawConstraint, nl)
		for li := range rs.raw[p] {
			raw := make([]rawConstraint, 0, rng.Intn(4))
			for i := cap(raw); i > 0; i-- {
				raw = append(raw, rawConstraint{
					r: pick(rng), lo: pick(rng), hi: pick(rng), xbits: rng.Uint64(),
				})
			}
			rs.raw[p][li] = raw
		}
	}
	rs.specials = make([][]uint64, rng.Intn(3))
	for li := range rs.specials {
		sp := make([]uint64, 0, rng.Intn(4))
		for i := cap(sp); i > 0; i-- {
			sp = append(sp, rng.Uint64())
		}
		rs.specials[li] = sp
	}
	return rs
}

func randConstraintSet(rng *rand.Rand) *constraintSet {
	nk, nl := rng.Intn(3), rng.Intn(3)
	cs := &constraintSet{rawCount: rng.Intn(1000)}
	cs.perKernel = make([][]levelConstraints, nk)
	for p := range cs.perKernel {
		cs.perKernel[p] = make([]levelConstraints, nl)
		for li := range cs.perKernel[p] {
			lc := &cs.perKernel[p][li]
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				lc.merged = append(lc.merged, mergedRow{
					r: pick(rng), lo: pick(rng), hi: pick(rng), inputs: int32(rng.Intn(100)),
				})
				in := make([]uint64, 0, rng.Intn(3))
				for j := cap(in); j > 0; j-- {
					in = append(in, rng.Uint64())
				}
				lc.rowInputs = append(lc.rowInputs, in)
			}
		}
	}
	cs.specials = make([]map[uint64]struct{}, rng.Intn(3))
	for li := range cs.specials {
		set := make(map[uint64]struct{})
		for i := rng.Intn(4); i > 0; i-- {
			set[rng.Uint64()] = struct{}{}
		}
		cs.specials[li] = set
	}
	return cs
}

func randResult(rng *rand.Rand) *Result {
	res := &Result{
		Fn:            bigmath.Func(rng.Intn(int(bigmath.NumFuncs))),
		ProgressiveRO: rng.Intn(2) == 0,
	}
	for i := rng.Intn(3); i > 0; i-- {
		res.Levels = append(res.Levels, fp.MustFormat(10+rng.Intn(20), 8))
	}
	for k := rng.Intn(3); k > 0; k-- {
		var kp KernelPoly
		kp.Structure.Offset = rng.Intn(4)
		kp.Structure.Stride = 1 + rng.Intn(2)
		for p := rng.Intn(3); p > 0; p-- {
			pc := Piece{Lo: pick(rng), Hi: pick(rng)}
			for i := rng.Intn(5); i > 0; i-- {
				pc.Coeffs = append(pc.Coeffs, pick(rng))
			}
			for i := rng.Intn(4); i > 0; i-- {
				pc.LevelTerms = append(pc.LevelTerms, rng.Intn(8))
			}
			kp.Pieces = append(kp.Pieces, pc)
		}
		res.Kernels = append(res.Kernels, kp)
	}
	res.Specials = make([][]SpecialInput, rng.Intn(3))
	for li := range res.Specials {
		for i := rng.Intn(4); i > 0; i-- {
			res.Specials[li] = append(res.Specials[li], SpecialInput{X: pick(rng), Proxy: pick(rng)})
		}
	}
	res.Stats.RawConstraints = rng.Intn(100000)
	res.Stats.MergedRows = rng.Intn(100000)
	res.Stats.Iters = rng.Intn(1000)
	res.Stats.Lucky = rng.Intn(1000)
	res.Stats.ExactSolves = rng.Intn(1000)
	res.Stats.Attempts = rng.Intn(1000)
	return res
}

// checkRoundTrip seals an encoded value, unseals and decodes it, and
// demands the reloaded value re-encode to the exact payload bytes
// (byte-level identity is stronger than structural equality and is the
// property the warm-cache contract rests on).
func checkRoundTrip[T any](t *testing.T, c pipeline.Codec[T], v T) bool {
	t.Helper()
	var e pipeline.Enc
	c.Encode(&e, v)
	payload := e.Bytes()
	sealed := pipeline.Seal(c.Name, c.Version, payload)
	got, err := pipeline.Unseal(sealed, c.Name, c.Version)
	if err != nil {
		t.Errorf("%s: Unseal of fresh artifact: %v", c.Name, err)
		return false
	}
	d := pipeline.NewDec(got)
	v2, err := c.Decode(d)
	if err != nil {
		t.Errorf("%s: Decode of fresh artifact: %v", c.Name, err)
		return false
	}
	if err := d.Done(); err != nil {
		t.Errorf("%s: trailing bytes after decode: %v", c.Name, err)
		return false
	}
	var e2 pipeline.Enc
	c.Encode(&e2, v2)
	if !bytes.Equal(e2.Bytes(), payload) {
		t.Errorf("%s: decoded value re-encodes differently (%d vs %d bytes)",
			c.Name, len(e2.Bytes()), len(payload))
		return false
	}
	return true
}

// checkTruncation verifies that every proper prefix of the payload fails
// to decode: either Decode itself errors or Done reports the imbalance —
// a truncated payload must never produce a clean value.
func checkTruncation[T any](t *testing.T, c pipeline.Codec[T], v T, rng *rand.Rand) bool {
	t.Helper()
	var e pipeline.Enc
	c.Encode(&e, v)
	payload := e.Bytes()
	if len(payload) == 0 {
		return true
	}
	cuts := []int{0, len(payload) / 2, len(payload) - 1, rng.Intn(len(payload))}
	for _, cut := range cuts {
		d := pipeline.NewDec(payload[:cut])
		if _, err := c.Decode(d); err == nil && d.Done() == nil {
			t.Errorf("%s: truncation to %d/%d bytes decoded cleanly", c.Name, cut, len(payload))
			return false
		}
	}
	return true
}

// checkSize verifies that a codec's announced payload size (what it
// passes to Enc.Grow) is the exact encoded length.
func checkSize[T any](t *testing.T, c pipeline.Codec[T], v T, size int) bool {
	t.Helper()
	var e pipeline.Enc
	c.Encode(&e, v)
	if len(e.Bytes()) != size {
		t.Errorf("%s: encoded %d bytes, encodedSize says %d", c.Name, len(e.Bytes()), size)
		return false
	}
	return true
}

func quickConf() *quick.Config { return &quick.Config{MaxCount: 60} }

func TestEnumCodecProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randRawSet(rng)
		return checkRoundTrip(t, enumCodec, rs) && checkTruncation(t, enumCodec, rs, rng) &&
			checkSize(t, enumCodec, rs, rs.encodedSize())
	}, quickConf()); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintCodecProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randConstraintSet(rng)
		return checkRoundTrip(t, constraintCodec, cs) && checkTruncation(t, constraintCodec, cs, rng) &&
			checkSize(t, constraintCodec, cs, cs.encodedSize())
	}, quickConf()); err != nil {
		t.Fatal(err)
	}
}

func TestResultCodecProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res := randResult(rng)
		return checkRoundTrip(t, ResultCodec, res) && checkTruncation(t, ResultCodec, res, rng)
	}, quickConf()); err != nil {
		t.Fatal(err)
	}
}

// TestSealedBitFlip flips single bits across a sealed artifact and demands
// every flip is caught by the frame checksum.
func TestSealedBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res := randResult(rng)
	var e pipeline.Enc
	ResultCodec.Encode(&e, res)
	sealed := pipeline.Seal(ResultCodec.Name, ResultCodec.Version, e.Bytes())
	for trial := 0; trial < 200; trial++ {
		pos, bit := rng.Intn(len(sealed)), uint(rng.Intn(8))
		mut := append([]byte(nil), sealed...)
		mut[pos] ^= 1 << bit
		if _, err := pipeline.Unseal(mut, ResultCodec.Name, ResultCodec.Version); !errors.Is(err, pipeline.ErrCorrupt) {
			t.Fatalf("bit flip at byte %d bit %d: Unseal returned %v, want ErrCorrupt", pos, bit, err)
		}
	}
}

// TestResultCodecRejectsBadFunc ensures a decoded function id outside the
// registry is corruption, not a latent panic at Eval time.
func TestResultCodecRejectsBadFunc(t *testing.T) {
	var e pipeline.Enc
	e.Int(int(bigmath.NumFuncs) + 3)
	_, err := ResultCodec.Decode(pipeline.NewDec(e.Bytes()))
	if !errors.Is(err, pipeline.ErrCorrupt) {
		t.Fatalf("decode of unknown func id: %v, want ErrCorrupt", err)
	}
}
