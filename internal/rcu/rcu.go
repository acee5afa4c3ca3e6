// Package rcu is the engine's one publication primitive. State that the
// query path reads on every statement — the database (every table's data
// and the summary tables' freshness, one generation in one storage.Store
// cell), the signature index, the observer's instrument registries, the
// engine's AST set — is read far more often than it changes,
// so it is kept as a sequence of immutable generations: a reader takes the
// current one with a single atomic load and never blocks, a writer builds the
// next one and swaps it in, and a reader that already loaded keeps the
// generation it has.
//
// Cell owns both halves of that idiom, the writer mutex and the pointer, and
// exposes no way to use one without the other: there is no Store, so a
// publication outside the lock cannot be written, and Update is the only
// place a generation is made. Map builds a copy-on-write map on a Cell and
// never hands its map out, so a write to a published map cannot be written
// either. What the types do not cover is memory reachable *through* a
// generation — a slice inside a loaded struct, a pointer stored as a map
// value: that stays frozen by convention (and, for storage chunks, by the
// seal of sqltypes.Vec). The lint package's boundaries rule keeps atomic.Pointer
// and atomic.Value out of every other package, so this is the only place the
// idiom is spelled out.
//
// Guarded is the other half: state that is written as often as it is read and
// so stays behind a plain mutex. It is here because it is the same move — the
// lock and what it guards in one value — and because the boundaries rule
// allows a mutex to be declared in this package only.
package rcu

import (
	"sync"
	"sync/atomic"
)

// Cell holds the current generation of a T. The zero Cell is ready to use and
// holds the zero T. A Cell must not be copied after first use.
type Cell[T any] struct {
	mu  sync.Mutex // serializes Update; Load never takes it
	cur atomic.Pointer[T]
}

// Load returns the current generation: one atomic load, no lock. The value is
// a copy of T itself; whatever T points to is shared with every other reader
// and must not be written.
func (c *Cell[T]) Load() T {
	if p := c.cur.Load(); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Update publishes f(current generation) as the next one. Calls are
// serialized: f runs under the cell's mutex, so it sees every earlier Update
// and may also touch writer-only state the caller keeps beside the cell. f
// must build what it returns rather than modify what it was given, and must
// not call Update on the same cell. If f panics, the previous generation stays
// published and the mutex is released.
func (c *Cell[T]) Update(f func(cur T) T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := f(c.Load())
	c.cur.Store(&next)
}

// Map is a copy-on-write map: lookups read the current generation, Update
// replaces it. The zero Map is empty and ready to use. The cost of an Update
// is a copy of the whole map, so it suits maps that are small or change
// rarely.
type Map[K comparable, V any] struct {
	cell Cell[map[K]V]
}

// Get returns the value stored under k in the current generation.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := m.cell.Load()[k]
	return v, ok
}

// Len returns the number of entries in the current generation.
func (m *Map[K, V]) Len() int { return len(m.cell.Load()) }

// Range calls f for every entry of one generation, in no particular order,
// until f returns false. Updates that land meanwhile are not seen.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for k, v := range m.cell.Load() {
		if !f(k, v) {
			return
		}
	}
}

// Update hands f a private copy of the current generation to modify in place
// — set, overwrite, delete — and publishes the copy when f returns. Nothing f
// does to draft is visible to readers before that, and nothing at all if f
// panics. Calls are serialized like Cell.Update; f must not keep draft.
func (m *Map[K, V]) Update(f func(draft map[K]V)) {
	m.cell.Update(func(cur map[K]V) map[K]V {
		draft := make(map[K]V, len(cur)+1)
		for k, v := range cur {
			draft[k] = v
		}
		f(draft)
		return draft
	})
}

// Guarded is a T that can be reached only with its mutex held. The zero
// Guarded holds the zero T and is ready to use; it must not be copied after
// first use (go vet's copylocks check reports a copy).
type Guarded[T any] struct {
	mu sync.Mutex
	v  T
}

// Do runs f on the guarded value under the mutex and releases it when f
// returns or panics. f must not keep the pointer past its return, must not
// call Do on the same Guarded, and should not block: results leave through
// variables f captures.
func (g *Guarded[T]) Do(f func(v *T)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f(&g.v)
}
