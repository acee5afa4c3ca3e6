package wire

import (
	"cmp"
	"fmt"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Rows is the MsgRows payload: a finished result set plus the routing facts
// the engine reports about it (which summary table served the plan, whether
// it came from the plan cache, whether execution fell back to base tables).
// The result is Rows or Chunks, encoded to the same bytes; the server sends
// the executor's chunks, DecodeRows returns one chunk of a vector per column.
type Rows struct {
	Cols []string
	// Kinds is the per-column type header: the kind of each column's first
	// non-NULL value (KindNull when a column is all NULL or the result is
	// empty). Encode infers it when it is nil. The driver reports the kinds of
	// the decoded vectors instead, which also tell a mixed column apart.
	Kinds    []sqltypes.Kind
	Rows     [][]sqltypes.Value
	Chunks   []*storage.Chunk
	Mode     string // execution mode: vectorized / interpreted
	AST      string // summary tables that served the plan, in splice order and joined by ","; "" = base tables
	CacheHit bool
	FellBack bool
}

// Encode serializes the message into a MsgRows payload.
func (m *Rows) Encode() []byte {
	n, hint := m.sizeHint()
	e := Encoder{buf: make([]byte, 0, hint)}
	e.Uvarint(uint64(len(m.Cols)))
	for _, c := range m.Cols {
		e.String(c)
	}
	for _, k := range m.kinds() {
		e.Uvarint(uint64(k))
	}
	e.String(m.Mode)
	e.String(m.AST)
	e.Bool(m.CacheHit)
	e.Bool(m.FellBack)
	e.Uvarint(uint64(n))
	for _, row := range m.Rows {
		for _, v := range row {
			e.Value(v)
		}
	}
	for _, c := range m.Chunks {
		for i := 0; i < c.Len(); i++ {
			for j := 0; j < c.Width(); j++ {
				e.vecValue(c.Col(j), i)
			}
		}
	}
	return e.Bytes()
}

// sizeHint counts the rows and estimates the payload from the widest of the
// first, middle and last row of the rows and of each chunk (ids and group keys
// tend to grow down a result), with an eighth to spare, so that Encode
// allocates its buffer once. A low guess only costs an append regrow.
func (m *Rows) sizeHint() (n, hint int) {
	widest := 0
	sample := func(width int, at func(j int) sqltypes.Value) {
		w := 0
		for j := range width {
			w += valueSize(at(j))
		}
		widest = max(widest, w)
	}
	n = len(m.Rows)
	for _, r := range []int{0, n / 2, n - 1}[:min(n, 3)] {
		sample(len(m.Rows[r]), func(j int) sqltypes.Value { return m.Rows[r][j] })
	}
	for _, c := range m.Chunks {
		for _, i := range []int{0, c.Len() / 2, c.Len() - 1}[:min(c.Len(), 3)] {
			sample(c.Width(), func(j int) sqltypes.Value { return c.Col(j).Value(i) })
		}
		n += c.Len()
	}
	return n, 32 + len(m.Mode) + len(m.AST) + 4*len(m.Cols) + n*(widest+widest/8+1)
}

// kinds is Kinds, or when that is nil what InferKinds makes of rows and chunks.
func (m *Rows) kinds() []sqltypes.Kind {
	if m.Kinds != nil {
		return m.Kinds
	}
	kinds := InferKinds(m.Cols, m.Rows)
	for _, c := range m.Chunks {
		for j := range kinds {
			for i := 0; i < c.Len() && kinds[j] == sqltypes.KindNull; i++ {
				kinds[j] = c.Col(j).Value(i).Kind()
			}
		}
	}
	return kinds
}

// DecodeRows parses a MsgRows payload into one chunk of one vector per
// column. A value costs at least a byte, so the header may claim no more
// values than the payload has bytes, and every allocation is bounded by them.
func DecodeRows(p []byte) (*Rows, error) {
	d := NewDecoder(p)
	ncols := d.Uvarint()
	if ncols > uint64(len(p))/2 { // a column's name and kind cost >= 2 bytes
		return nil, fmt.Errorf("wire: rows header claims %d columns in %d bytes", ncols, len(p))
	}
	m := &Rows{Cols: make([]string, ncols), Kinds: make([]sqltypes.Kind, ncols)}
	for i := range m.Cols {
		m.Cols[i] = d.String()
	}
	for i := range m.Kinds {
		m.Kinds[i] = sqltypes.Kind(d.Uvarint())
	}
	m.Mode = d.String()
	m.AST = d.String()
	m.CacheHit = d.Bool()
	m.FellBack = d.Bool()
	nrows := d.Uvarint()
	if d.Err() != nil || nrows > uint64(len(p))/max(ncols, 1) { // a row of no columns is still held to a byte
		return nil, cmp.Or(d.Err(), fmt.Errorf("wire: rows header claims %d rows of %d columns in %d bytes", nrows, ncols, len(p)))
	}
	vecs, cols := make([]sqltypes.Vec, ncols), make([]column, ncols)
	for c, k := range m.Kinds {
		cols[c].refill(&vecs[c], k, int(nrows))
	}
	for r := 0; r < int(nrows) && d.Err() == nil; r++ {
		for c := range cols {
			d.cell(&cols[c], r)
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	m.Chunks = []*storage.Chunk{storage.NewChunk(int(nrows), vecs)}
	return m, nil
}

// ExecOK is the MsgExecOK payload: one applied DML statement.
type ExecOK struct {
	Table    string
	Affected int64
	// Maintenance summarizes the per-AST refresh outcomes, rendered
	// server-side (strategy, delta rows, retirements); informational only.
	Maintenance string
}

// Encode serializes the message into a MsgExecOK payload.
func (m *ExecOK) Encode() []byte {
	var e Encoder
	e.String(m.Table)
	e.Varint(m.Affected)
	e.String(m.Maintenance)
	return e.Bytes()
}

// DecodeExecOK parses a MsgExecOK payload.
func DecodeExecOK(p []byte) (*ExecOK, error) {
	d := NewDecoder(p)
	m := &ExecOK{Table: d.String(), Affected: d.Varint(), Maintenance: d.String()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeString serializes a MsgQuery/MsgExec/MsgExplain/MsgText payload
// (they all carry a single string).
func EncodeString(s string) []byte {
	var e Encoder
	e.String(s)
	return e.Bytes()
}

// DecodeString parses a single-string payload.
func DecodeString(p []byte) (string, error) {
	d := NewDecoder(p)
	s := d.String()
	if err := d.Done(); err != nil {
		return "", err
	}
	return s, nil
}

// InferKinds scans a result column-wise for the first non-NULL value of each
// column; all-NULL (or zero-row) columns stay KindNull.
func InferKinds(cols []string, rows [][]sqltypes.Value) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, len(cols))
	for c := range cols {
		for _, row := range rows {
			if c < len(row) && !row[c].IsNull() {
				kinds[c] = row[c].Kind()
				break
			}
		}
	}
	return kinds
}
