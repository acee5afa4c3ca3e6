package core

import (
	"container/list"
	"context"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
)

// PlanCache memoizes rewrite results across queries that differ at most in
// their literals (a dashboard re-issues the same reports with a new date
// range, country or threshold; matching every AST every time is pure
// overhead). It is a bounded LRU keyed by the statement's template
// (parser.Template: the text with every number and string literal replaced by
// a typed slot) plus the usable set of the candidate ASTs.
//
// A template holds a few variants, each a plan and its pins: the literals
// planning looked at, with the values they had (qgm.Param). A lookup hits the
// variant whose pins the incoming literal vector agrees with, and binds that
// vector into a copy of the plan (qgm.Graph.Bind); a vector that agrees with
// none plans afresh and is stored beside them, the template's least recently
// used variant making room past maxVariants. A pinned literal therefore
// behaves as the whole text used to — equal value or no hit — an unpinned one
// is free, and no decision that rested on a constant is reused for another.
//
// The usable set is what makes a hit safe against status changes: a cached
// plan names its summary tables, and is valid for as long as the candidates
// that may serve rewrites (registered, not quarantined, not stale unless
// Options.AllowStale) are the ones it was planned against. A stale mark and
// quarantine change the set and therefore the key — the entry stops being
// found and ages out, or is found again once the table is back — while a
// refresh that leaves every table usable changes nothing: DML does not flush
// the cache.
//
// Concurrency: the cache is one LRU behind one lock, held for a map lookup
// and a list move. A stored plan is never written: every lookup, the one that
// stored it included, gets its own bound copy. Hits, misses and evictions are
// counted on the rewriter's observer (the core.plancache.* counters).
type PlanCache struct {
	cap int
	lru rcu.Guarded[planLRU]

	// usable is the usable set last derived, kept until the store publishes
	// another status generation (or the caller passes other candidates).
	usable rcu.Cell[*usableSet]
}

// planLRU is the cache's recency list and its index.
type planLRU struct {
	ll    *list.List                  // of *cacheEntry; front = most recently used
	byKey map[planKey][]*list.Element // a template's variants, most recently used first
}

// planKey is what a lookup must match exactly.
type planKey struct {
	usable   string // sorted names of the usable candidates
	template string
}

type cacheEntry struct {
	key  planKey
	pins []pin
	plan *qgm.Graph // built by BuildParams; bound into a copy on every lookup
	asts []string   // summary tables the plan reads, in splice order; nil = base plan
}

// pin is one literal planning looked at: the plan holds for statements whose
// literal vector has val at slot.
type pin struct {
	slot int
	val  sqltypes.Value
}

func pinsHold(pins []pin, lits []sqltypes.Value) bool {
	for _, p := range pins {
		if !sqltypes.Identical(lits[p.slot], p.val) {
			return false
		}
	}
	return true
}

// DefaultPlanCacheSize bounds a cache constructed with capacity <= 0.
const DefaultPlanCacheSize = 256

// maxVariants bounds the plans kept for one template and usable set. Variants
// arise only from pinned literals that vary, and each lookup walks them all.
const maxVariants = 4

// NewPlanCache returns an empty cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	c := &PlanCache{cap: capacity}
	c.lru.Do(func(l *planLRU) {
		*l = planLRU{ll: list.New(), byKey: map[planKey][]*list.Element{}}
	})
	return c
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	c.lru.Do(func(l *planLRU) { n = l.ll.Len() })
	return n
}

// get returns the variant of key whose pins hold for lits, promoting it;
// known reports that the key has variants at all, so that a miss with known
// set is a pinned literal that differed.
func (c *PlanCache) get(key planKey, lits []sqltypes.Value) (ent *cacheEntry, known bool) {
	c.lru.Do(func(l *planLRU) {
		variants := l.byKey[key]
		known = len(variants) > 0
		for i, el := range variants {
			if e := el.Value.(*cacheEntry); pinsHold(e.pins, lits) {
				l.ll.MoveToFront(el)
				copy(variants[1:], variants[:i])
				variants[0] = el
				ent = e
				return
			}
		}
	})
	return ent, known
}

// put stores ent, planned for lits, as the most recently used variant of its
// key. Within the key it takes the place of the variant that answers lits, if
// a concurrent miss stored one first, else of the least recently used one once
// there are maxVariants; then the cache's least recently used entries go
// until it is within capacity, and put returns how many those were.
func (c *PlanCache) put(ent *cacheEntry, lits []sqltypes.Value) int {
	evicted := 0
	c.lru.Do(func(l *planLRU) {
		variants := l.byKey[ent.key]
		out := -1
		if len(variants) >= maxVariants {
			out = len(variants) - 1
		}
		for i, el := range variants {
			if pinsHold(el.Value.(*cacheEntry).pins, lits) {
				out = i
				break
			}
		}
		if out >= 0 {
			l.ll.Remove(variants[out])
			variants = append(variants[:out:out], variants[out+1:]...)
		}
		l.byKey[ent.key] = append([]*list.Element{l.ll.PushFront(ent)}, variants...)
		for l.ll.Len() > c.cap {
			// A key's variants are in list order, so the list's back is the
			// last of its key's.
			back := l.ll.Back()
			l.ll.Remove(back)
			key := back.Value.(*cacheEntry).key
			if rest := l.byKey[key]; len(rest) > 1 {
				l.byKey[key] = rest[:len(rest)-1]
			} else {
				delete(l.byKey, key)
			}
			evicted++
		}
	})
	return evicted
}

// usableSet is the part of a plan-cache key that follows the candidates'
// status, derived from one status generation.
type usableSet struct {
	gen        *catalog.Statuses // the generation it was derived from, by identity
	allowStale bool
	asts       []*CompiledAST
	key        string
}

// usableKey returns the sorted names of the candidates that may serve
// rewrites under the status generation gen. Deriving it costs a status lookup
// per candidate, a sort and a join, so the last one is kept in the cache and
// reused for as long as the generation and the candidates are the same ones.
func (rw *Rewriter) usableKey(cache *PlanCache, gen *catalog.Statuses, asts []*CompiledAST) string {
	if u := cache.usable.Load(); u != nil && u.gen == gen && u.allowStale == rw.opts.AllowStale && slices.Equal(u.asts, asts) {
		return u.key
	}
	names := make([]string, 0, len(asts))
	for _, ast := range asts {
		if gen.Usable(ast.Def.Name, rw.opts.AllowStale) {
			names = append(names, ast.Def.Name)
		}
	}
	sort.Strings(names)
	key := strings.Join(names, ";")
	cache.usable.Update(func(*usableSet) *usableSet {
		return &usableSet{
			gen:        gen,
			allowStale: rw.opts.AllowStale,
			asts:       append([]*CompiledAST(nil), asts...),
			key:        key,
		}
	})
	return key
}

// CachedRewrite is the outcome of a cache-aware rewrite.
type CachedRewrite struct {
	// Plan is runnable and owned by the caller: a copy of the cached plan with
	// the statement's literals bound in.
	Plan *qgm.Graph
	// ASTs names the summary tables the plan reads, in splice order; empty
	// means the base plan.
	ASTs []string
	// Hit reports whether the plan came from the cache (no matching ran).
	Hit bool
	// Rewrite carries the match details on a cache miss that rewrote; nil on
	// hits and on base plans. Its boxes belong to the cached plan, not to Plan:
	// read them, do not change them.
	Rewrite *Result
}

// RewriteSQLCached answers "what plan should run for this SQL" through the
// cache. One lexer pass yields the statement's template and literals; on a
// hit the cached plan is copied with those literals bound in — no parse, no
// graph build, no matching. On a miss the statement is built with its
// literals as Params and planned exactly as RewriteOrFallback plans it (every
// summary table that pays, verified, else the base plan), and the outcome is
// cached with the literals planning pinned — negative outcomes included, so a
// query no AST serves stops paying match overhead too.
func (rw *Rewriter) RewriteSQLCached(ctx context.Context, cache *PlanCache, sql string, asts []*CompiledAST, sizer Sizer) (*CachedRewrite, error) {
	span := obs.SpanFromContext(ctx)
	lookup := span.Child("plancache.lookup")
	template, lits, err := parser.Template(sql)
	if err != nil {
		// Not a statement: let the parser say why, as it does without a cache.
		lookup.End()
		if _, perr := qgm.BuildSQL(sql, rw.cat); perr != nil {
			return nil, perr
		}
		return nil, err
	}
	gen := sizer.Statuses()
	key := planKey{usable: rw.usableKey(cache, gen, asts), template: template}
	ent, known := cache.get(key, lits)
	if ent != nil {
		plan := ent.plan.Bind(lits)
		lookup.End()
		rw.obsv.Add(CtrCacheHits, 1)
		return &CachedRewrite{Plan: plan, ASTs: ent.asts, Hit: true}, nil
	}
	lookup.End()
	rw.obsv.Add(CtrCacheMisses, 1)
	if known {
		rw.obsv.Add(CtrCacheVariantMisses, 1)
	}

	parse := span.Child("parse")
	stmt, err := parser.Parse(sql)
	var query *qgm.Graph
	if err == nil {
		query, err = qgm.BuildParams(stmt, rw.cat)
	}
	parse.End()
	if err != nil {
		return nil, err
	}
	plan, res := rw.plan(ctx, query, asts, sizer, gen, nil)
	ent = &cacheEntry{key: key, plan: plan, asts: res.Tables()}
	for _, p := range query.Params {
		if p != nil && p.Pinned() {
			ent.pins = append(ent.pins, pin{slot: p.Slot, val: lits[p.Slot]})
		}
	}
	rw.obsv.Add(CtrCacheEvictions, int64(cache.put(ent, lits)))
	rw.obsv.Add(CtrCachePins, int64(len(ent.pins)))
	return &CachedRewrite{Plan: plan.Bind(lits), ASTs: ent.asts, Rewrite: res}, nil
}
