// Package pta implements a whole-program, flow-insensitive, subset-based
// points-to analysis with on-the-fly call-graph construction, in the
// style of Doop's analyses that the Mahjong paper builds on.
//
// Three axes are pluggable:
//
//   - context sensitivity (Selector): context-insensitive, k-call-site
//     (k-CFA), k-object and k-type sensitivity;
//   - heap abstraction (HeapModel): allocation-site, allocation-type and
//     the Mahjong merged-object abstraction (built by package core);
//   - budget: a deterministic cap on propagation work used to reproduce
//     the paper's "unscalable within 5 hours" cells.
package pta

import (
	"fmt"
	"strings"

	"mahjong/internal/lang"
)

// Context is an interned, immutable calling context: a bounded sequence
// of context elements (call sites, heap objects or classes), newest
// element first. Two equal contexts are pointer-identical, so contexts
// can be used directly as map keys; each also carries a dense ID within
// its table (the empty context is 0), which is what the solver indexes
// its per-context state by.
type Context struct {
	parent *Context // context without the newest element; nil only for the empty context
	elem   any      // newest element: *lang.Invoke, *Obj or *lang.Class
	depth  int
	id     int32
}

// Depth returns the number of elements in the context.
func (c *Context) Depth() int {
	if c == nil {
		return 0
	}
	return c.depth
}

// Elements returns the context's elements oldest first.
func (c *Context) Elements() []any {
	out := make([]any, c.Depth())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = c.elem
		c = c.parent
	}
	return out
}

// String renders the context like "[site#1, site#4]" (oldest first).
func (c *Context) String() string {
	if c == nil || c.depth == 0 {
		return "[]"
	}
	parts := make([]string, 0, c.depth)
	for _, e := range c.Elements() {
		parts = append(parts, fmt.Sprint(e))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ctxKey is the interning key of contexts whose newest element has no
// typed key (elements other than call sites, objects and classes).
type ctxKey struct {
	parent *Context
	elem   any
}

// ContextTable interns contexts so that structural equality coincides
// with pointer equality, and numbers them densely in creation order.
//
// A context is interned under its parent's ID plus its newest element.
// Call sites, objects and classes — the elements every built-in
// selector pushes — are keyed by kind and ID, so interning hashes two
// integers; the IDs of one kind must be distinct within a table, which
// holds for the elements of one program and one heap model (one solve).
// Any other element type falls back to a map keyed by the element.
type ContextTable struct {
	empty *Context
	all   []*Context // by ID
	typed idTable    // (parent ID, element kind/ID) -> context ID
	other map[ctxKey]*Context
}

// NewContextTable returns a table containing only the empty context.
func NewContextTable() *ContextTable {
	empty := &Context{}
	return &ContextTable{
		empty: empty,
		all:   []*Context{empty},
		typed: newIDTable(64, true),
	}
}

// Empty returns the empty context.
func (t *ContextTable) Empty() *Context { return t.empty }

// elemKey returns the typed key of a context element: its kind in the
// top two bits of the low word, its ID below. ok is false for element
// types without one.
func elemKey(elem any) (key uint32, ok bool) {
	var kind, id int
	switch e := elem.(type) {
	case *lang.Invoke:
		kind, id = 1, e.ID
	case *Obj:
		kind, id = 2, e.ID
	case *lang.Class:
		kind, id = 3, e.ID
	default:
		return 0, false
	}
	if id < 0 || id >= 1<<30 {
		return 0, false
	}
	return uint32(kind)<<30 | uint32(id), true
}

// append1 returns ctx extended with elem (no truncation).
func (t *ContextTable) append1(ctx *Context, elem any) *Context {
	ek, typed := elemKey(elem)
	if typed {
		if id, ok := t.typed.get(uint64(ctx.id)<<32|uint64(ek), 1); ok {
			return t.all[id]
		}
	} else if c, ok := t.other[ctxKey{ctx, elem}]; ok {
		return c
	}
	c := &Context{parent: ctx, elem: elem, depth: ctx.depth + 1, id: int32(len(t.all))}
	t.all = append(t.all, c)
	if typed {
		t.typed.insert(uint64(ctx.id)<<32|uint64(ek), 1, c.id)
	} else {
		if t.other == nil {
			t.other = make(map[ctxKey]*Context)
		}
		t.other[ctxKey{ctx, elem}] = c
	}
	return c
}

// Push appends elem to ctx and truncates the result to its newest k
// elements. Push with k <= 0 yields the empty context.
func (t *ContextTable) Push(ctx *Context, elem any, k int) *Context {
	if k <= 0 {
		return t.empty
	}
	if ctx == nil {
		ctx = t.empty
	}
	// Truncate returns ctx itself when it already fits in k-1 elements —
	// the common case for k-limited selectors, whose receiver heap
	// contexts are one element shorter than their method contexts.
	return t.append1(t.Truncate(ctx, k-1), elem)
}

// Truncate returns the context holding only the newest k elements of ctx.
func (t *ContextTable) Truncate(ctx *Context, k int) *Context {
	if k <= 0 {
		return t.empty
	}
	if ctx.Depth() <= k {
		return ctx
	}
	out := t.empty
	for _, e := range newestElems(ctx, k) {
		out = t.append1(out, e)
	}
	return out
}

// newestElems returns the newest min(k, depth) elements of ctx,
// oldest first.
func newestElems(ctx *Context, k int) []any {
	if k > ctx.Depth() {
		k = ctx.Depth()
	}
	out := make([]any, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = ctx.elem
		ctx = ctx.parent
	}
	return out
}
