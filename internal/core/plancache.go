package core

import (
	"container/list"
	"context"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

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
// plan names its summary table, and is valid for as long as the candidates
// that may serve rewrites (registered, not quarantined, not stale unless
// Options.AllowStale) are the ones it was planned against. MarkStale and
// quarantine change the set and therefore the key — the entry stops being
// found and ages out, or is found again once the table is back — while a
// refresh that leaves every table usable changes nothing: DML does not flush
// the cache.
//
// Concurrency: the cache is striped. Templates hash (FNV-1a) onto independent
// LRU shards, each behind its own lock, so concurrent sessions hitting
// different statements never contend on one lock; lifetime statistics are
// lock-free atomics. Small caches (capacity < planCacheStripeMin) collapse to
// a single shard, which keeps exact global LRU order where capacity is tight
// enough for eviction order to be observable. A stored plan is never written:
// every lookup, the one that stored it included, gets its own bound copy.
type PlanCache struct {
	shards []planShard

	hits, misses, evictions atomic.Int64

	// usable is the usable set last derived, kept until the catalog publishes
	// another status generation (or the caller passes other candidates).
	usable rcu.Cell[*usableSet]
}

// planShard is one independent LRU stripe of the cache.
type planShard struct {
	cap int
	lru rcu.Guarded[planLRU]

	// Pad to a cache line so neighboring shards' locks do not false-share.
	_ [64]byte
}

// planLRU is a shard's recency list and its index.
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
	ast  string     // AST name the plan reads; "" = base plan
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

// planCacheStripes is the shard count for caches large enough to stripe
// (power of two, so shard selection is a mask).
const planCacheStripes = 16

// planCacheStripeMin is the smallest capacity that stripes: below it a
// per-shard capacity would round to a handful of entries and hash skew could
// evict hot plans a global LRU would keep.
const planCacheStripeMin = 4 * planCacheStripes

// NewPlanCache returns an empty cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	n := 1
	if capacity >= planCacheStripeMin {
		n = planCacheStripes
	}
	c := &PlanCache{shards: make([]planShard, n)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i].cap = sc
		c.shards[i].lru.Do(func(l *planLRU) {
			*l = planLRU{ll: list.New(), byKey: map[planKey][]*list.Element{}}
		})
	}
	return c
}

// shard maps a template to its stripe by FNV-1a hash. The usable set is not
// hashed: the eras of one statement share a stripe.
func (c *PlanCache) shard(template string) *planShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(template); i++ {
		h ^= uint64(template[i])
		h *= 1099511628211
	}
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].lru.Do(func(l *planLRU) { n += l.ll.Len() })
	}
	return n
}

// Stats returns lifetime hit and miss counts.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many entries capacity pressure has evicted over the
// cache's lifetime.
func (c *PlanCache) Evictions() int64 {
	return c.evictions.Load()
}

// get returns the variant of key whose pins hold for lits, promoting it;
// known reports that the key has variants at all, so that a miss with known
// set is a pinned literal that differed.
func (c *PlanCache) get(key planKey, lits []sqltypes.Value) (ent *cacheEntry, known bool) {
	c.shard(key.template).lru.Do(func(l *planLRU) {
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
	if ent != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ent, known
}

// put stores ent, planned for lits, as the most recently used variant of its
// key. Within the key it takes the place of the variant that answers lits, if
// a concurrent miss stored one first, else of the least recently used one once
// there are maxVariants; then the shard's least recently used entries go until
// it is within capacity, and put returns how many those were.
func (c *PlanCache) put(ent *cacheEntry, lits []sqltypes.Value) int {
	s := c.shard(ent.key.template)
	evicted := 0
	s.lru.Do(func(l *planLRU) {
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
		for l.ll.Len() > s.cap {
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
	c.evictions.Add(int64(evicted))
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
	// AST names the summary table the plan reads; "" means the base plan.
	AST string
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
// literals as Params and planned exactly as RewriteOrFallback plans it (the
// cheapest verified rewrite, else the base plan), and the outcome is cached
// with the literals planning pinned — negative outcomes included, so a query
// no AST serves stops paying match overhead too.
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
	gen := rw.cat.Statuses()
	key := planKey{usable: rw.usableKey(cache, gen, asts), template: template}
	ent, known := cache.get(key, lits)
	if ent != nil {
		plan := ent.plan.Bind(lits)
		lookup.End()
		rw.obsv.Add(CtrCacheHits, 1)
		return &CachedRewrite{Plan: plan, AST: ent.ast, Hit: true}, nil
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
	plan, res := rw.plan(ctx, query, asts, sizer, nil)
	ent = &cacheEntry{key: key, plan: plan}
	if res != nil {
		ent.ast = res.AST.Def.Name
	}
	for _, p := range query.Params {
		if p != nil && p.Pinned() {
			ent.pins = append(ent.pins, pin{slot: p.Slot, val: lits[p.Slot]})
		}
	}
	// The plan was chosen among the tables usable while it was planned; it
	// belongs under key only if those were the ones of gen throughout.
	if rw.cat.Statuses() == gen {
		rw.obsv.Add(CtrCacheEvictions, int64(cache.put(ent, lits)))
		rw.obsv.Add(CtrCachePins, int64(len(ent.pins)))
	}
	return &CachedRewrite{Plan: plan.Bind(lits), AST: ent.ast, Rewrite: res}, nil
}
