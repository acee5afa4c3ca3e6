package storage

import "repro/internal/sqltypes"

// ChunkRows is the fixed row capacity of one storage chunk. 1024 rows keeps a
// chunk's typed column payloads (8 KiB per int64/float64 column) L1/L2
// resident while amortizing per-chunk dispatch in the vectorized executor.
const ChunkRows = 1024

// Chunk is one column-major batch of table rows: per-column typed vectors of
// up to ChunkRows values each. Chunks returned by SnapshotChunks are frozen —
// N and the vector headers pin a consistent prefix that later appends never
// touch — and must be treated as read-only.
type Chunk struct {
	// N is the row count (all Cols have length N).
	N int
	// Cols holds one vector per table column.
	Cols []sqltypes.Vec
}

// Row materializes row i of the chunk into dst (which must have length
// len(Cols)).
func (c *Chunk) Row(i int, dst []sqltypes.Value) {
	for j := range c.Cols {
		dst[j] = c.Cols[j].Value(i)
	}
}

// frozen returns a read-only view of the chunk: sealed (full) chunks are
// immutable and shared directly; a partially filled tail chunk is header-
// copied with cloned null bitmaps, because appends to the tail write typed
// payload elements only past the frozen length but set null bits in packed
// words shared with frozen rows.
func (c *Chunk) frozen() *Chunk {
	if c.N == ChunkRows {
		return c
	}
	f := &Chunk{N: c.N, Cols: make([]sqltypes.Vec, len(c.Cols))}
	for i := range c.Cols {
		f.Cols[i] = c.Cols[i].Frozen()
	}
	return f
}

// Writer is the one place rows turn into chunks — a table's inserts, bulk
// loads and rewrites, and the executor's output and row-path relations all go
// through Add. It fills Chunks ChunkRows rows to a chunk, so every chunk but
// the last is full. Left is how many rows are still to come (0 when unknown):
// a new chunk reserves its vectors once, for that many rows up to ChunkRows,
// in the kinds of its first row. A row has at least Cols values.
type Writer struct {
	Cols   int
	Left   int
	N      int
	Chunks []*Chunk
}

// Add appends one row. Only the last chunk is written, and only past its
// length, so frozen views of it stay valid.
func (w *Writer) Add(row []sqltypes.Value) {
	k := len(w.Chunks)
	if k == 0 || w.Chunks[k-1].N == ChunkRows {
		c := &Chunk{Cols: make([]sqltypes.Vec, w.Cols)}
		for i := range c.Cols {
			c.Cols[i].Reserve(row[i].Kind(), min(max(w.Left, 0), ChunkRows))
		}
		w.Chunks = append(w.Chunks, c)
		k++
	}
	c := w.Chunks[k-1]
	for i := range c.Cols {
		c.Cols[i].AppendValue(row[i])
	}
	c.N++
	w.N++
	w.Left--
}

// Rows materializes n rows of chunks into rows the caller owns, carved,
// capacity-capped, from one fresh block.
func Rows(chunks []*Chunk, n int) [][]sqltypes.Value {
	if n == 0 {
		return nil
	}
	width := len(chunks[0].Cols)
	vals := make([]sqltypes.Value, n*width)
	rows := make([][]sqltypes.Value, 0, n)
	for _, c := range chunks {
		for i := 0; i < c.N; i++ {
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
			buf = make([]sqltypes.Value, len(c.Cols))
		}
		for i := 0; i < c.N; i, pos = i+1, pos+1 {
			c.Row(i, buf)
			if err := f(pos, buf); err != nil {
				return err
			}
		}
	}
	return nil
}
