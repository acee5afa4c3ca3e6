package storage

import "repro/internal/sqltypes"

// ChunkRows is the fixed row capacity of one storage chunk. 1024 rows keeps a
// chunk's typed column payloads (8 KiB per int64/float64 column) L1/L2
// resident while amortizing per-chunk dispatch in the vectorized executor.
const ChunkRows = 1024

// Chunk is one column-major batch of table rows: per-column typed vectors of
// up to ChunkRows values each. Every chunk a reader can reach is sealed — its
// vectors panic on any write — and its fields are private to this package;
// readers use Len, Width, Col and Row.
type Chunk struct {
	n    int            // row count (every column has length n)
	cols []sqltypes.Vec // one vector per table column
}

// NewChunk seals cols, n rows each, as a chunk: the executor's projection
// output.
func NewChunk(n int, cols []sqltypes.Vec) *Chunk {
	c := &Chunk{n: n, cols: cols}
	c.seal()
	return c
}

// Len, Width and Col read the chunk: its row count, its column count, column i.
func (c *Chunk) Len() int                { return c.n }
func (c *Chunk) Width() int              { return len(c.cols) }
func (c *Chunk) Col(i int) *sqltypes.Vec { return &c.cols[i] }

// Row materializes row i of the chunk into dst (which must have length
// Width()).
func (c *Chunk) Row(i int, dst []sqltypes.Value) {
	for j := range c.cols {
		dst[j] = c.cols[j].Value(i)
	}
}

func (c *Chunk) seal() {
	for i := range c.cols {
		c.cols[i].Seal()
	}
}

// frozen returns a read-only view of the chunk: full chunks were sealed when
// they filled and are shared directly; a partially filled tail chunk is
// header-copied into sealed vectors with cloned null bitmaps, because appends
// to the tail write typed payload elements only past the frozen length but set
// null bits in packed words shared with frozen rows.
func (c *Chunk) frozen() *Chunk {
	if c.n == ChunkRows {
		return c
	}
	f := &Chunk{n: c.n, cols: make([]sqltypes.Vec, len(c.cols))}
	for i := range c.cols {
		f.cols[i] = c.cols[i].Frozen()
	}
	return f
}

// Writer is the one place rows turn into chunks — a table's inserts, bulk
// loads and rewrites, and the executor's output and row-path relations all go
// through Add. It fills chunks ChunkRows rows to a chunk, so every chunk but
// the last is full, and seals each as it fills. Left is how many rows are
// still to come (0 when unknown): a new chunk reserves its vectors once, for
// that many rows up to ChunkRows, in the kinds of its first row. A row has at
// least Cols values.
type Writer struct {
	Cols   int
	Left   int
	N      int
	chunks []*Chunk
}

// Add appends one row. Only the last chunk is written, and only past its
// length, so frozen views of it stay valid.
func (w *Writer) Add(row []sqltypes.Value) {
	k := len(w.chunks)
	if k == 0 || w.chunks[k-1].n == ChunkRows {
		c := &Chunk{cols: make([]sqltypes.Vec, w.Cols)}
		for i := range c.cols {
			c.cols[i].Reserve(row[i].Kind(), min(max(w.Left, 0), ChunkRows))
		}
		w.chunks = append(w.chunks, c)
		k++
	}
	c := w.chunks[k-1]
	for i := range c.cols {
		c.cols[i].AppendValue(row[i])
	}
	if c.n++; c.n == ChunkRows {
		c.seal()
	}
	w.N++
	w.Left--
}

// Seal seals the last chunk and returns the chunks, for a writer whose rows
// are all added.
func (w *Writer) Seal() []*Chunk {
	if k := len(w.chunks); k > 0 {
		w.chunks[k-1].seal()
	}
	return w.chunks
}

// Rows materializes n rows of chunks into rows the caller owns, carved,
// capacity-capped, from one fresh block.
func Rows(chunks []*Chunk, n int) [][]sqltypes.Value {
	if n == 0 {
		return nil
	}
	width := len(chunks[0].cols)
	vals := make([]sqltypes.Value, n*width)
	rows := make([][]sqltypes.Value, 0, n)
	for _, c := range chunks {
		for i := 0; i < c.n; i++ {
			row := vals[:width:width]
			vals = vals[width:]
			c.Row(i, row)
			rows = append(rows, row)
		}
	}
	return rows
}

// EachRow calls f with every row of chunks and its position, in order, each
// loaded into one buffer reused from row to row: f must not keep it. It stops
// at f's first error and returns it.
func EachRow(chunks []*Chunk, f func(pos int, row []sqltypes.Value) error) error {
	var buf []sqltypes.Value
	pos := 0
	for _, c := range chunks {
		if buf == nil {
			buf = make([]sqltypes.Value, len(c.cols))
		}
		for i := 0; i < c.n; i, pos = i+1, pos+1 {
			c.Row(i, buf)
			if err := f(pos, buf); err != nil {
				return err
			}
		}
	}
	return nil
}
