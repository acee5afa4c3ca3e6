package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, MsgQuery, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgQuery || !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: typ=%#x len=%d want len=%d", typ, len(got), len(want))
		}
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, MsgQuery, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// A header announcing an oversized payload is rejected before allocation.
	hdr := []byte{MsgQuery, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized header accepted")
	}
}

func sampleRows() *Rows {
	rows := [][]sqltypes.Value{
		{sqltypes.NewInt(-42), sqltypes.NewFloat(math.Pi), sqltypes.NewString("héllo"), sqltypes.NewBool(true), sqltypes.MustParseDate("1996-02-29")},
		{sqltypes.Value{}, sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewString(""), sqltypes.NewBool(false), sqltypes.Value{}},
	}
	cols := []string{"i", "f", "s", "b", "d"}
	return &Rows{
		Cols:     cols,
		Kinds:    InferKinds(cols, rows),
		Rows:     rows,
		Mode:     "vectorized",
		AST:      "ast1",
		CacheHit: true,
	}
}

func TestRowsRoundTrip(t *testing.T) {
	want := sampleRows()
	got, err := DecodeRows(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != len(want.Cols) || got.Mode != want.Mode || got.AST != want.AST ||
		got.CacheHit != want.CacheHit || got.FellBack != want.FellBack {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, k := range want.Kinds {
		if got.Kinds[i] != k {
			t.Fatalf("kind[%d] = %v, want %v", i, got.Kinds[i], k)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count %d, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if !sqltypes.Identical(got.Rows[r][c], want.Rows[r][c]) {
				t.Fatalf("row %d col %d: %v != %v", r, c, got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
}

func TestRowsEmptyResult(t *testing.T) {
	cols := []string{"a"}
	m := &Rows{Cols: cols, Kinds: InferKinds(cols, nil), Mode: "interpreted"}
	got, err := DecodeRows(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || len(got.Cols) != 1 || got.Kinds[0] != sqltypes.KindNull {
		t.Fatalf("empty result mishandled: %+v", got)
	}
}

// TestDecodeRejectsCorruption truncates and bit-flips an encoded message at
// every position; the decoder must error, never panic or hand back trailing
// garbage silently.
func TestDecodeRejectsCorruption(t *testing.T) {
	p := sampleRows().Encode()
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeRows(p[:cut]); err == nil {
			// A prefix that happens to decode cleanly must at least be
			// rejected by Done() for trailing bytes — reaching here means
			// DecodeRows accepted a truncation as a full message.
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRows(append(append([]byte(nil), p...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestExecOKAndStringRoundTrip(t *testing.T) {
	ok, err := DecodeExecOK((&ExecOK{Table: "trans", Affected: 7, Maintenance: "byloc: incremental"}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ok.Table != "trans" || ok.Affected != 7 || !strings.Contains(ok.Maintenance, "byloc") {
		t.Fatalf("execok mismatch: %+v", ok)
	}
	s, err := DecodeString(EncodeString("select 1"))
	if err != nil || s != "select 1" {
		t.Fatalf("string round-trip: %q %v", s, err)
	}
}

// TestErrorCodeRoundTrip locks the error-surface contract: for every astdb
// sentinel, classify → encode → decode → errors.Is against the same sentinel
// holds, and against the others does not.
func TestErrorCodeRoundTrip(t *testing.T) {
	sentinels := []error{
		astdb.ErrParse,
		astdb.ErrUnknownTable,
		astdb.ErrBudgetExceeded,
		astdb.ErrCanceled,
		astdb.ErrWriteProtected,
		astdb.ErrOverloaded,
	}
	for _, s := range sentinels {
		wrapped := errors.Join(s) // simulate the engine wrapping detail around the sentinel
		code := CodeFor(wrapped)
		decoded, err := DecodeError(EncodeError(code, wrapped.Error()))
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range sentinels {
			if got := errors.Is(decoded, other); got != (other == s) {
				t.Fatalf("errors.Is(decoded(%v), %v) = %v", s, other, got)
			}
		}
		var we *Error
		if !errors.As(decoded, &we) || we.Code != code {
			t.Fatalf("errors.As lost the wire error for %v", s)
		}
	}
	// Unknown errors classify as internal and match no sentinel.
	dec, err := DecodeError(EncodeError(CodeFor(errors.New("boom")), "boom"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Code != CodeInternal {
		t.Fatalf("unclassified error got code %v", dec.Code)
	}
	for _, s := range sentinels {
		if errors.Is(dec, s) {
			t.Fatalf("internal error matches %v", s)
		}
	}
}

// TestRowsEncodeAllocs: Encode sizes its buffer once from the row count, so a
// hundred times the rows is not a dozen more doublings — and valueSize, which
// the estimate rests on, is exact.
func TestRowsEncodeAllocs(t *testing.T) {
	for _, row := range sampleRows().Rows {
		for _, v := range row {
			var e Encoder
			if e.Value(v); len(e.Bytes()) != valueSize(v) {
				t.Fatalf("valueSize(%v) = %d, encoded %d bytes", v, valueSize(v), len(e.Bytes()))
			}
		}
	}
	allocs := func(n int) float64 {
		m := &Rows{Cols: []string{"id", "name", "amt"}, Mode: "vectorized"}
		for i := 0; i < n; i++ {
			m.Rows = append(m.Rows, []sqltypes.Value{
				sqltypes.NewInt(int64(i) * 37), sqltypes.NewString(strings.Repeat("x", i%9)), sqltypes.NewFloat(float64(i) / 3),
			})
		}
		m.Kinds = InferKinds(m.Cols, m.Rows)
		if got, err := DecodeRows(m.Encode()); err != nil || len(got.Rows) != n {
			t.Fatalf("round trip of %d rows: %v", n, err)
		}
		return testing.AllocsPerRun(10, func() { m.Encode() })
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("Encode: %.0f allocs at 100 rows, %.0f at 10000", small, large)
	if large > small+1 {
		t.Errorf("Encode allocations grow with the row count: %.0f at 100 rows, %.0f at 10000", small, large)
	}
}
