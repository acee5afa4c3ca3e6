package driver

import (
	"database/sql/driver"
	"io"
	"reflect"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// Rows adapts a fully-received wire result set to driver.Rows. The protocol
// ships whole results (the engine materializes aggregates anyway), so Next
// never touches the network. The result is the decoded chunk, one vector per
// column, and Next reads row i of each.
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
	c := r.m.Chunks[0]
	if r.i >= c.Len() {
		return io.EOF
	}
	for j := range dest {
		dest[j] = driverValue(c.Col(j), r.i)
	}
	r.i++
	return nil
}

// driverValue maps element i of v onto database/sql's value domain, read from
// the vector's typed payload. An element of a mixed column is read from a
// one-element vector of its own kind.
func driverValue(v *sqltypes.Vec, i int) driver.Value {
	if v.Generic() {
		var one sqltypes.Vec
		one.Splat(v.Any()[i], 1)
		return driverValue(&one, 0)
	}
	if v.IsNull(i) {
		return nil
	}
	switch v.Kind() {
	case sqltypes.KindInt:
		return v.Ints()[i]
	case sqltypes.KindFloat:
		return v.Floats()[i]
	case sqltypes.KindString:
		return v.Strs()[i]
	case sqltypes.KindBool:
		return v.Ints()[i] != 0
	default:
		return date(v.Ints()[i])
	}
}

// date maps a yyyymmdd date payload to midnight UTC.
func date(ymd int64) time.Time {
	return time.Date(int(ymd/10000), time.Month(ymd/100%100), int(ymd%100), 0, 0, 0, 0, time.UTC)
}

// ColumnTypeDatabaseTypeName implements driver.RowsColumnTypeDatabaseTypeName
// ("INTEGER", "DOUBLE", "VARCHAR", "BOOLEAN", "DATE"; "NULL" for a column
// with no non-NULL values in this result; "" for a column whose values are of
// more than one kind).
func (r *Rows) ColumnTypeDatabaseTypeName(index int) string {
	v := r.m.Chunks[0].Col(index)
	if v.Generic() {
		return ""
	}
	return v.Kind().String()
}

// ColumnTypeScanType implements driver.RowsColumnTypeScanType: the Go type of
// every non-NULL value of the column in this result, any when they differ.
func (r *Rows) ColumnTypeScanType(index int) reflect.Type {
	switch v := r.m.Chunks[0].Col(index); {
	case v.Generic():
	case v.Kind() == sqltypes.KindInt:
		return reflect.TypeOf(int64(0))
	case v.Kind() == sqltypes.KindFloat:
		return reflect.TypeOf(float64(0))
	case v.Kind() == sqltypes.KindString:
		return reflect.TypeOf("")
	case v.Kind() == sqltypes.KindBool:
		return reflect.TypeOf(false)
	case v.Kind() == sqltypes.KindDate:
		return reflect.TypeOf(time.Time{})
	}
	return reflect.TypeOf(new(any)).Elem()
}

// ColumnTypeNullable implements driver.RowsColumnTypeNullable: every engine
// column may be NULL (outer contexts, all-NULL aggregates).
func (r *Rows) ColumnTypeNullable(index int) (nullable, ok bool) { return true, true }
