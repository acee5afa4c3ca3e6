package wire_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// suiteAnswers answers the paper suite (every query of bench.Queries, with
// every paper summary table registered), the DS suite (with its summary
// tables) and two statements of many chunks and of a mixed column, once on
// the chunk pipeline and once on the reference path, whose root is rows.
func suiteAnswers(t testing.TB) map[string]*astdb.Answer {
	env := bench.NewEnv(2000, core.Options{})
	for name, sql := range bench.ASTDefs {
		env.MustRegisterAST(name, sql)
	}
	for _, st := range workload.DSASTs {
		env.MustRegisterAST(st.Name, st.SQL)
	}
	stmts := map[string]string{
		"many_chunks": `select tid, date, price, disc from trans where qty > 1`,
		"mixed":       `select tid, case when qty > 3 then qty else price end as x from trans`,
	}
	for name, sql := range bench.Queries {
		stmts[name] = sql
	}
	for _, q := range workload.DSQueries {
		stmts[q.Name] = q.SQL
	}
	out := map[string]*astdb.Answer{}
	for mode, db := range map[string]*astdb.Engine{
		"pipeline":  env.DB(),
		"reference": env.DB(astdb.WithLimits(exec.Config{Interpret: true})),
	} {
		for name, sql := range stmts {
			ans, err := db.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, mode, err)
			}
			out[name+"/"+mode] = ans
		}
	}
	return out
}

// chunkMessage is the message the server sends for an answer.
func chunkMessage(ans *astdb.Answer) *wire.Rows {
	return &wire.Rows{Cols: ans.Cols, Chunks: ans.Chunks(), Mode: ans.Mode, AST: strings.Join(ans.ASTs, ","), CacheHit: ans.CacheHit}
}

// TestEncodeChunksMatchesRows: the server's chunks and the same answer's rows
// encode to identical payloads — the byte format did not change.
func TestEncodeChunksMatchesRows(t *testing.T) {
	answers := suiteAnswers(t)
	names := make([]string, 0, len(answers))
	for name := range answers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ans := answers[name]
		fromChunks := chunkMessage(ans).Encode()
		rows := ans.Rows()
		fromRows := (&wire.Rows{Cols: ans.Cols, Kinds: wire.InferKinds(ans.Cols, rows), Rows: rows,
			Mode: ans.Mode, AST: strings.Join(ans.ASTs, ","), CacheHit: ans.CacheHit}).Encode()
		if !bytes.Equal(fromChunks, fromRows) {
			t.Fatalf("%s: %d bytes from chunks, %d from rows, not the same", name, len(fromChunks), len(fromRows))
		}
		if strings.HasPrefix(name, "many_chunks/pipeline") && len(ans.Chunks()) < 2 {
			t.Fatalf("%s: %d chunks, want several", name, len(ans.Chunks()))
		}
	}
}

// sameBits reports whether two values are of one kind with one payload, bit
// for bit: NaN payloads and the sign of zero included.
func sameBits(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqltypes.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.KindString:
		return a.Str() == b.Str()
	case sqltypes.KindNull:
		return true
	default:
		return a.Int() == b.Int()
	}
}

// decodedRows flattens a decoded message's chunk.
func decodedRows(m *wire.Rows) [][]sqltypes.Value {
	return storage.Rows(m.Chunks, m.Chunks[0].Len())
}

// sameRows fails t unless got holds want's values bit for bit.
func sameRows(t *testing.T, got, want [][]sqltypes.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if !sameBits(got[r][c], want[r][c]) {
				t.Fatalf("row %d col %d: %#v, want %#v", r, c, got[r][c], want[r][c])
			}
		}
	}
}

// FuzzDecodeRows checks the MsgRows decoder against any input and the codec
// against any result.
//   - Any payload decodes or is refused, without a panic, allocating at most
//     allocPerByte bytes per payload byte (a column's vector is 144 B against
//     the two bytes its name and kind take at least), and a payload it accepts
//     encodes again to the same values.
//   - A result built from the input — NULLs, NaN payloads, −0.0 and ±Inf,
//     dates, "" and NUL bytes, a column mixing INTEGER and DOUBLE, any number
//     of rows in chunks of any length — encodes to one payload from rows and
//     from chunks, and decodes to its values bit for bit.
//
// The corpus starts from the paper and DS suites' payloads of up to 4 KiB.
func FuzzDecodeRows(f *testing.F) {
	for _, ans := range suiteAnswers(f) {
		if p := chunkMessage(ans).Encode(); len(p) <= 4<<10 { // minimizing a larger seed stalls the fuzzer
			f.Add(p)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const allocPerByte = 160
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := wire.DecodeRows(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocPerByte*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err == nil {
			again, err := wire.DecodeRows(m.Encode())
			if err != nil {
				t.Fatalf("re-encoding an accepted payload: %v", err)
			}
			sameRows(t, decodedRows(again), decodedRows(m))
		}

		cols, rows, chunks := generate(data)
		fromRows := (&wire.Rows{Cols: cols, Rows: rows}).Encode()
		fromChunks := (&wire.Rows{Cols: cols, Chunks: chunks}).Encode()
		if !bytes.Equal(fromRows, fromChunks) {
			t.Fatalf("rows and chunks encode differently")
		}
		got, err := wire.DecodeRows(fromChunks)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Kinds, wire.InferKinds(cols, rows)) {
			t.Fatalf("kinds %v, want %v", got.Kinds, wire.InferKinds(cols, rows))
		}
		sameRows(t, decodedRows(got), rows)
	})
}

// generate reads a result out of data: a column count, a kind per column and
// a chunk length, then rows of cells, each NULL or a value of its column's
// kind drawn from the next bytes. It returns the rows, and the same rows cut
// into chunks of that length.
func generate(data []byte) (cols []string, rows [][]sqltypes.Value, chunks []*storage.Chunk) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var w uint64
		for range 8 {
			w = w<<8 | uint64(next())
		}
		return w
	}
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1e300, 5e-324}
	kinds := make([]byte, 1+next()%4)
	for j := range kinds {
		cols = append(cols, string(rune('a'+j)))
		kinds[j] = next() % 7
	}
	chunkLen := 1 + int(next())%7
	for len(data) > 0 {
		row := make([]sqltypes.Value, len(kinds))
		for j, k := range kinds {
			if next()%5 == 0 {
				continue // NULL
			}
			switch b := next(); k {
			case 0:
				row[j] = sqltypes.NewInt(int64(word()))
			case 1:
				row[j] = sqltypes.NewFloat(math.Float64frombits(word()))
			case 2:
				row[j] = sqltypes.NewFloat(specials[int(b)%len(specials)])
			case 3:
				s := []string{"", "\x00", "x\x00y", "héllo", "€"}[b%5]
				for range b % 4 {
					s += string(rune(next()))
				}
				row[j] = sqltypes.NewString(s)
			case 4:
				row[j] = sqltypes.NewDate(1900+int(b), 1+int(next())%12, 1+int(next())%28)
			case 5:
				row[j] = sqltypes.NewBool(b%2 == 1)
			case 6: // INTEGER and DOUBLE in one column
				if b%2 == 0 {
					row[j] = sqltypes.NewInt(int64(b))
				} else {
					row[j] = sqltypes.NewFloat(float64(b) / 3)
				}
			}
		}
		rows = append(rows, row)
	}
	for start := 0; start < len(rows); {
		n := min(chunkLen, len(rows)-start)
		vecs := make([]sqltypes.Vec, len(kinds))
		for _, row := range rows[start : start+n] {
			for j := range vecs {
				vecs[j].AppendValue(row[j])
			}
		}
		chunks = append(chunks, storage.NewChunk(n, vecs))
		start += n
	}
	return cols, rows, chunks
}
