package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrCorrupt marks an artifact that cannot be trusted: truncated, failing
// its checksum, carrying the wrong magic/codec/version, or decoding to an
// inconsistent value. The stage runner treats it as a cache miss and
// regenerates; it is never a silent partial read.
var ErrCorrupt = errors.New("pipeline: corrupt artifact")

// frameMagic opens every sealed artifact file. The trailing '1' is the
// frame-layout version; a future frame change replaces the magic
// wholesale.
var frameMagic = [8]byte{'R', 'L', 'B', 'M', 'A', 'R', 'T', '1'}

// checksumSize is the size of the trailing SHA-256 checksum.
const checksumSize = sha256.Size

// Seal frames a codec payload for storage: magic, codec name, codec
// version, payload length, payload, then a SHA-256 checksum over
// everything before it. Every field is fixed-width little-endian, so
// sealing is deterministic: equal payloads seal to equal bytes. The frame
// is built in one buffer of its final size, so sealing a large artifact
// holds one extra copy of the payload, not the several an appending
// buffer would leave behind while it doubles.
func Seal(name string, version uint32, payload []byte) []byte {
	size := len(frameMagic) + 8 + len(name) + 4 + 8 + len(payload) + checksumSize
	e := Enc{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, frameMagic[:]...)
	e.Int(len(name))
	e.buf = append(e.buf, name...)
	e.U32(version)
	e.U64(uint64(len(payload)))
	e.buf = append(e.buf, payload...)
	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// Unseal validates a sealed frame and returns its payload. Any framing
// problem — short file, bad magic, checksum mismatch, or a codec
// name/version other than the expected one — returns an error wrapping
// ErrCorrupt.
func Unseal(data []byte, name string, version uint32) ([]byte, error) {
	if len(data) < len(frameMagic)+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any frame", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := NewDec(body)
	var magic [8]byte
	copy(magic[:], d.bytes(len(frameMagic)))
	if magic != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	gotName := string(d.bytes(d.Int()))
	gotVersion := d.U32()
	payLen := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if gotName != name || gotVersion != version {
		return nil, fmt.Errorf("%w: artifact is %s@v%d, want %s@v%d", ErrCorrupt, gotName, gotVersion, name, version)
	}
	payload := d.bytes(int(payLen))
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return payload, nil
}

// CheckFrame verifies the outer frame of a sealed artifact — magic and
// trailing SHA-256 checksum — without knowing which codec produced it.
// Store.Audit uses it to validate a whole cache directory.
func CheckFrame(data []byte) error {
	if len(data) < len(frameMagic)+checksumSize {
		return fmt.Errorf("%w: %d bytes is shorter than any frame", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var magic [8]byte
	copy(magic[:], body)
	if magic != frameMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	return nil
}

// Enc is the deterministic artifact encoder: fixed-width little-endian
// integers, float64 as raw IEEE bits. Equal values always encode to equal
// bytes, which is what makes warm-cache output byte-comparable to cold
// output.
type Enc struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Grow makes room for n more bytes. A codec that knows its payload size
// calls it first, so a large artifact is encoded into one buffer rather
// than through a chain of ever larger copies.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U32 appends a fixed-width uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement bits.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its exact IEEE-754 bits (NaNs and signed
// zeros round-trip bit-identically).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Byte appends one raw byte.
func (e *Enc) Byte(v byte) { e.buf = append(e.buf, v) }

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(v []byte) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(v string) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// Dec decodes an Enc payload. Errors are sticky: the first bounds or
// validity failure wedges the decoder into an ErrCorrupt state, every
// subsequent read returns zero values, and Err/Done report the failure —
// a decode can never silently consume garbage.
type Dec struct {
	data []byte
	off  int
	err  error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// fail wedges the decoder.
func (d *Dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// bytes consumes and returns the next n raw bytes.
func (d *Dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.off {
		d.fail("truncated read of %d bytes at offset %d of %d", n, d.off, len(d.data))
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

// U32 reads a fixed-width uint32.
func (d *Dec) U32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width uint64.
func (d *Dec) U64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 from its IEEE bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Dec) Bool() bool {
	b := d.bytes(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("invalid bool byte %d", b[0])
	return false
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Blob reads a length-prefixed byte slice (a copy, so the decoder's
// backing buffer can be reused).
func (d *Dec) Blob() []byte {
	n := d.Len()
	b := d.bytes(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Len()
	b := d.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Len reads a slice length and sanity-bounds it: a length that is
// negative or larger than the number of unread bytes (every element
// encodes at least one byte) is corruption, caught before any allocation
// could balloon.
func (d *Dec) Len() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > len(d.data)-d.off {
		d.fail("implausible length %d with %d bytes left", n, len(d.data)-d.off)
		return 0
	}
	return n
}

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

// Done returns the sticky error, or an ErrCorrupt if trailing bytes
// remain unconsumed (a payload must decode exactly).
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes after decode", ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}
