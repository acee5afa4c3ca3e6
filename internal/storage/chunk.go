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

// NewChunk seals cols, n rows each, as a chunk: the executor's projection and
// GROUP BY output.
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

// sealed reports whether nothing more is written to c: it filled, or it came
// sealed into the table (Put).
func (c *Chunk) sealed() bool {
	return c.n == ChunkRows || len(c.cols) > 0 && c.cols[0].Sealed()
}

// frozen returns a read-only view of the chunk: a sealed chunk is shared
// directly; an open tail is header-copied into sealed vectors with cloned null
// bitmaps, because appends to the tail write typed payload elements only past
// the frozen length but set null bits in packed words shared with frozen rows.
func (c *Chunk) frozen() *Chunk {
	if c.sealed() {
		return c
	}
	f := &Chunk{n: c.n, cols: make([]sqltypes.Vec, len(c.cols))}
	for i := range c.cols {
		f.cols[i] = c.cols[i].Frozen()
	}
	return f
}

// Writer is the one place rows turn into chunks: a table's inserts and bulk
// loads, and a row-path SELECT's output read by a pipeline parent (a GROUP
// BY's output is never rows: NewChunk seals its columns). A rewrite passes it
// chunks instead, whose vectors it copies a run at a time (Append). It fills
// chunks ChunkRows rows to a chunk and seals each as it fills; it never
// writes into a sealed chunk, but replaces a short sealed last chunk (one Put
// or a rewrite kept) by an open copy, so short chunks fill up rather than pile
// up. Left is how many rows are still to come (0 when unknown): a new chunk
// reserves its vectors once, for that many rows up to ChunkRows. A row has at
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
	c := w.tail()
	if c == nil {
		if c = w.open(); c.n == 0 {
			for i := range c.cols {
				c.cols[i].Reserve(row[i].Kind(), min(max(w.Left, 0), ChunkRows))
			}
		}
	}
	for i := range c.cols {
		c.cols[i].AppendValue(row[i])
	}
	w.grew(c, 1)
}

// Append appends rows lo to hi of src, copying its vectors a run at a time.
func (w *Writer) Append(src *Chunk, lo, hi int) {
	for lo < hi {
		c := w.tail()
		if c == nil {
			c = w.open()
		}
		k := min(hi-lo, ChunkRows-c.n)
		for j := range c.cols {
			if c.n == 0 {
				c.cols[j].Reserve(src.cols[j].Kind(), min(max(w.Left, 0), ChunkRows))
			}
			c.cols[j].AppendVec(&src.cols[j], lo, lo+k)
		}
		w.grew(c, k)
		lo += k
	}
}

// tail returns the last chunk while it is open, the one the next rows go
// into, else nil.
func (w *Writer) tail() *Chunk {
	if k := len(w.chunks); k > 0 && !w.chunks[k-1].sealed() {
		return w.chunks[k-1]
	}
	return nil
}

// open appends a new chunk, holding a copy of the last one's rows when that
// is sealed but short.
func (w *Writer) open() *Chunk {
	k := len(w.chunks)
	c := &Chunk{cols: make([]sqltypes.Vec, w.Cols)}
	if k > 0 && w.chunks[k-1].n < ChunkRows {
		k, c.n = k-1, w.chunks[k-1].n
		for j, v := range w.chunks[k].cols {
			c.cols[j].Reserve(v.Kind(), min(c.n+max(w.Left, 0), ChunkRows))
			c.cols[j].AppendVec(&v, 0, c.n)
		}
	}
	w.chunks = append(w.chunks[:k], c)
	return c
}

// grew counts n rows appended to c, sealing it when it fills.
func (w *Writer) grew(c *Chunk, n int) {
	if c.n += n; c.n == ChunkRows {
		c.seal()
	}
	w.N += n
	w.Left -= n
}

// keep appends c itself, shared; the open chunk before it is written no more.
func (w *Writer) keep(c *Chunk) {
	if k := len(w.chunks); k > 0 && !w.chunks[k-1].sealed() {
		w.chunks[k-1].seal()
	}
	w.chunks = append(w.chunks, c)
	w.N += c.n
	w.Left -= c.n
}

// Seal seals the last chunk and returns the chunks, for a writer whose rows
// are all added.
func (w *Writer) Seal() []*Chunk {
	if k := len(w.chunks); k > 0 {
		w.chunks[k-1].seal()
	}
	return w.chunks
}

// Chunked is rows written through a Writer of width columns and sealed.
func Chunked(width int, rows [][]sqltypes.Value) []*Chunk {
	w := Writer{Cols: width, Left: len(rows)}
	for _, r := range rows {
		w.Add(r)
	}
	return w.Seal()
}

// Gather is the rows sel of c, in that order, in chunks of up to ChunkRows
// rows.
func Gather(c *Chunk, sel []int32) []*Chunk {
	var out []*Chunk
	for lo := 0; lo < len(sel); lo += ChunkRows {
		idx := sel[lo:min(lo+ChunkRows, len(sel))]
		cols := make([]sqltypes.Vec, len(c.cols))
		for j := range cols {
			cols[j].Gather(&c.cols[j], idx)
		}
		out = append(out, NewChunk(len(idx), cols))
	}
	return out
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
