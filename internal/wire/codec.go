package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"

	"repro/internal/sqltypes"
)

// Encoder builds a frame payload. The zero Encoder is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Varint appends a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bool appends one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Value appends one SQL value: a kind byte then the kind's payload.
func (e *Encoder) Value(v sqltypes.Value) {
	e.buf = append(e.buf, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindInt, sqltypes.KindDate:
		e.Varint(v.Int())
	case sqltypes.KindFloat:
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
	case sqltypes.KindString:
		e.String(v.Str())
	case sqltypes.KindBool:
		e.Bool(v.Bool())
	}
}

// valueSize is the number of bytes Value appends for v.
func valueSize(v sqltypes.Value) int {
	var tmp [binary.MaxVarintLen64]byte
	switch v.Kind() {
	case sqltypes.KindInt, sqltypes.KindDate:
		return 1 + binary.PutVarint(tmp[:], v.Int())
	case sqltypes.KindFloat:
		return 9
	case sqltypes.KindString:
		return 1 + binary.PutUvarint(tmp[:], uint64(len(v.Str()))) + len(v.Str())
	case sqltypes.KindBool:
		return 2
	}
	return 1
}

// Decoder consumes a frame payload. Errors are sticky: the first malformed
// read poisons the decoder and every later read returns the zero value, so
// message decoders check Err once at the end.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Err returns the first decode error, nil on a clean parse.
func (d *Decoder) Err() error { return d.err }

// fail poisons the decoder.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed %s", what)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return u
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// String reads a length-prefixed string, validating UTF-8 and bounding the
// length by the remaining payload.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	if !utf8.ValidString(s) {
		d.fail("string (invalid UTF-8)")
		return ""
	}
	return s
}

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail("bool")
		return false
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b != 0
}

// Value reads one SQL value.
func (d *Decoder) Value() sqltypes.Value {
	if d.err != nil {
		return sqltypes.Value{}
	}
	if len(d.buf) == 0 {
		d.fail("value kind")
		return sqltypes.Value{}
	}
	kind := sqltypes.Kind(d.buf[0])
	d.buf = d.buf[1:]
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Value{}
	case sqltypes.KindInt:
		return sqltypes.NewInt(d.Varint())
	case sqltypes.KindDate:
		ymd := d.Varint()
		return sqltypes.NewDate(int(ymd/10000), int((ymd/100)%100), int(ymd%100))
	case sqltypes.KindFloat:
		if len(d.buf) < 8 {
			d.fail("float")
			return sqltypes.Value{}
		}
		bits := binary.BigEndian.Uint64(d.buf[:8])
		d.buf = d.buf[8:]
		return sqltypes.NewFloat(math.Float64frombits(bits))
	case sqltypes.KindString:
		return sqltypes.NewString(d.String())
	case sqltypes.KindBool:
		return sqltypes.NewBool(d.Bool())
	default:
		d.fail(fmt.Sprintf("value (unknown kind %d)", kind))
		return sqltypes.Value{}
	}
}

// Done reports whether the payload was fully consumed without error; message
// decoders call it last so trailing garbage is rejected, not ignored.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.buf))
	}
	return nil
}
