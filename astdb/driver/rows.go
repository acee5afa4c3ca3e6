package driver

import (
	"database/sql/driver"
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// Rows adapts a fully-received wire result set to driver.Rows. The protocol
// ships whole results (the engine materializes aggregates anyway), so Next
// never touches the network.
type Rows struct {
	m *wire.Rows
	i int
}

// Columns implements driver.Rows.
func (r *Rows) Columns() []string { return r.m.Cols }

// Close implements driver.Rows; the result is already drained off the wire.
func (r *Rows) Close() error { return nil }

// Next implements driver.Rows.
func (r *Rows) Next(dest []driver.Value) error {
	if r.i >= len(r.m.Rows) {
		return io.EOF
	}
	row := r.m.Rows[r.i]
	r.i++
	for c := range dest {
		v, err := toDriverValue(row[c])
		if err != nil {
			return err
		}
		dest[c] = v
	}
	return nil
}

// toDriverValue maps an engine value onto database/sql's value domain.
func toDriverValue(v sqltypes.Value) (driver.Value, error) {
	switch v.Kind() {
	case sqltypes.KindNull:
		return nil, nil
	case sqltypes.KindInt:
		return v.Int(), nil
	case sqltypes.KindFloat:
		return v.Float(), nil
	case sqltypes.KindString:
		return v.Str(), nil
	case sqltypes.KindBool:
		return v.Bool(), nil
	case sqltypes.KindDate:
		return time.Date(int(v.DateYear()), time.Month(v.DateMonth()), int(v.DateDay()),
			0, 0, 0, 0, time.UTC), nil
	default:
		return nil, fmt.Errorf("astdb driver: unmappable value kind %v", v.Kind())
	}
}

// ColumnTypeDatabaseTypeName implements driver.RowsColumnTypeDatabaseTypeName
// ("INTEGER", "DOUBLE", "VARCHAR", "BOOLEAN", "DATE"; "NULL" for a column
// with no non-NULL values in this result).
func (r *Rows) ColumnTypeDatabaseTypeName(index int) string {
	return r.m.Kinds[index].String()
}

// ColumnTypeScanType implements driver.RowsColumnTypeScanType.
func (r *Rows) ColumnTypeScanType(index int) reflect.Type {
	switch r.m.Kinds[index] {
	case sqltypes.KindInt:
		return reflect.TypeOf(int64(0))
	case sqltypes.KindFloat:
		return reflect.TypeOf(float64(0))
	case sqltypes.KindString:
		return reflect.TypeOf("")
	case sqltypes.KindBool:
		return reflect.TypeOf(false)
	case sqltypes.KindDate:
		return reflect.TypeOf(time.Time{})
	default:
		return reflect.TypeOf(new(any)).Elem()
	}
}

// ColumnTypeNullable implements driver.RowsColumnTypeNullable: every engine
// column may be NULL (outer contexts, all-NULL aggregates).
func (r *Rows) ColumnTypeNullable(index int) (nullable, ok bool) { return true, true }

// Mode reports the server-side execution mode of this result (vectorized /
// interpreted) — observational, for load tooling.
func (r *Rows) Mode() string { return r.m.Mode }

// AST reports which summary table served the plan ("" = base tables).
func (r *Rows) AST() string { return r.m.AST }

// CacheHit reports whether the plan came from the server's plan cache.
func (r *Rows) CacheHit() bool { return r.m.CacheHit }
