package wire

import (
	"fmt"

	"repro/internal/sqltypes"
)

// Rows is the MsgRows payload: a finished result set plus the routing facts
// the engine reports about it (which summary table served the plan, whether
// it came from the plan cache, whether execution fell back to base tables).
type Rows struct {
	Cols []string
	// Kinds is the per-column type, inferred by the server from the first
	// non-NULL value of each column (KindNull when a column is all NULL or
	// the result is empty). The driver surfaces it through
	// ColumnTypeDatabaseTypeName / ColumnTypeScanType.
	Kinds    []sqltypes.Kind
	Rows     [][]sqltypes.Value
	Mode     string // execution mode: vectorized / interpreted
	AST      string // summary table that served the plan; "" = base tables
	CacheHit bool
	FellBack bool
}

// Encode serializes the message into a MsgRows payload.
func (m *Rows) Encode() []byte {
	e := Encoder{buf: make([]byte, 0, m.sizeHint())}
	e.Uvarint(uint64(len(m.Cols)))
	for _, c := range m.Cols {
		e.String(c)
	}
	for _, k := range m.Kinds {
		e.Uvarint(uint64(k))
	}
	e.String(m.Mode)
	e.String(m.AST)
	e.Bool(m.CacheHit)
	e.Bool(m.FellBack)
	e.Uvarint(uint64(len(m.Rows)))
	for _, row := range m.Rows {
		for _, v := range row {
			e.Value(v)
		}
	}
	return e.Bytes()
}

// sizeHint estimates the encoded size so that Encode allocates its buffer
// once instead of doubling it a dozen times under a large reply: the header,
// plus rows × the widest of three sampled rows (first, middle, last — group
// keys and ids tend to grow down a result) with an eighth to spare. A low
// guess only costs an append regrow.
func (m *Rows) sizeHint() int {
	n := 32 + len(m.Mode) + len(m.AST) + 2*len(m.Kinds)
	for _, c := range m.Cols {
		n += len(c) + 2
	}
	if len(m.Rows) == 0 {
		return n
	}
	widest := 0
	for _, ri := range [3]int{0, len(m.Rows) / 2, len(m.Rows) - 1} {
		w := 0
		for _, v := range m.Rows[ri] {
			w += valueSize(v)
		}
		widest = max(widest, w)
	}
	return n + len(m.Rows)*(widest+widest/8+1)
}

// DecodeRows parses a MsgRows payload.
func DecodeRows(p []byte) (*Rows, error) {
	d := NewDecoder(p)
	ncols := d.Uvarint()
	if ncols > uint64(len(p)) { // each column name costs >= 1 byte
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
	if ncols > 0 && nrows > uint64(len(p)) { // each value costs >= 1 byte
		return nil, fmt.Errorf("wire: rows header claims %d rows in %d bytes", nrows, len(p))
	}
	m.Rows = make([][]sqltypes.Value, 0, nrows)
	for r := uint64(0); r < nrows && d.Err() == nil; r++ {
		row := make([]sqltypes.Value, ncols)
		for c := range row {
			row[c] = d.Value()
		}
		m.Rows = append(m.Rows, row)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
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
