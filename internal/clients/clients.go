// Package clients implements the paper's three type-dependent clients
// of points-to analysis (§6): call graph construction, devirtualization
// and may-fail casting. Their precision depends only on the types of
// pointed-to objects, which is what makes the Mahjong abstraction
// near-lossless for them.
package clients

import (
	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// Metrics are the three client measurements of Table 2, plus reachable
// methods (a common sanity metric). Lower is better for all but
// Reachable.
type Metrics struct {
	// CallGraphEdges counts context-insensitive call-graph edges
	// (#call graph edges).
	CallGraphEdges int
	// PolyCallSites counts virtual call sites with two or more targets,
	// i.e. sites devirtualization cannot rewrite (#poly call sites).
	PolyCallSites int
	// MayFailCasts counts cast statements that may receive an object
	// whose type is not a subtype of the cast target (#may-fail casts).
	MayFailCasts int
	// Reachable counts reachable methods.
	Reachable int
	// EscapingSites and StackAllocSites partition the reachable
	// allocation sites by the escape client (escape.go); fewer escaping
	// sites is better.
	EscapingSites   int
	StackAllocSites int
	// MayNullLoads counts instance-field loads that may observe an
	// uninitialized field (nullness.go).
	MayNullLoads int
	// TaintedSinks counts sink calls a tainted object may reach, out of
	// TaintSinks reachable sink calls (taint.go).
	TaintedSinks int
	TaintSinks   int
}

// Evaluate computes all client metrics from a points-to result. The
// field projection both the escape and the nullness client read is
// computed once and shared.
func Evaluate(r *pta.Result) Metrics {
	heap := projectHeap(r)
	esc := escape(r, heap)
	return Metrics{
		CallGraphEdges:  r.NumCallGraphEdges(),
		PolyCallSites:   len(PolyCallSites(r)),
		MayFailCasts:    len(MayFailCasts(r)),
		Reachable:       r.NumReachableMethods(),
		EscapingSites:   len(esc.Escaping),
		StackAllocSites: len(esc.Stackable),
		MayNullLoads:    len(mayNullLoads(r, heap)),
		TaintedSinks:    len(TaintedSinks(r)),
		TaintSinks:      len(TaintSinks(r)),
	}
}

// objField names one (abstract object, field) pair.
type objField struct {
	o *pta.Obj
	f *lang.Field
}

// heapFacts is the part of the field projection (pta.Result.FieldPointsTo)
// the identity clients read: which objects are stored into some field,
// and which (object, field) pairs have a recorded store.
type heapFacts struct {
	stored  map[*pta.Obj]bool
	written map[objField]bool
}

// projectHeap walks the field projection once.
func projectHeap(r *pta.Result) heapFacts {
	h := heapFacts{stored: map[*pta.Obj]bool{}, written: map[objField]bool{}}
	r.FieldPointsTo(func(base *pta.Obj, f *lang.Field, targets []*pta.Obj) {
		if len(targets) == 0 {
			return
		}
		h.written[objField{base, f}] = true
		for _, o := range targets {
			h.stored[o] = true
		}
	})
	return h
}

// PolyCallSites returns the reachable virtual call sites that dispatch
// to two or more methods, ordered by call-site ID.
func PolyCallSites(r *pta.Result) []*lang.Invoke {
	var out []*lang.Invoke
	for _, inv := range r.ReachableInvokes() {
		if len(r.CallTargets(inv)) >= 2 {
			out = append(out, inv)
		}
	}
	return out
}

// MonoCallSites returns the reachable virtual call sites that can be
// devirtualized (exactly one target), ordered by call-site ID.
func MonoCallSites(r *pta.Result) []*lang.Invoke {
	var out []*lang.Invoke
	for _, inv := range r.ReachableInvokes() {
		if len(r.CallTargets(inv)) == 1 {
			out = append(out, inv)
		}
	}
	return out
}

// MayFailCasts returns the reachable cast statements into which an
// object of an incompatible type may flow.
func MayFailCasts(r *pta.Result) []*lang.Cast {
	var out []*lang.Cast
	for _, rc := range r.ReachableCasts() {
		for _, o := range rc.Incoming {
			if !o.Type.SubtypeOf(rc.Stmt.Type) {
				out = append(out, rc.Stmt)
				break
			}
		}
	}
	return out
}

// UncaughtExceptionTypes returns the types of exception objects that
// may escape the entry method (the over-approximation accumulated in
// the entry's synthetic $exc variable), sorted by name. An entry with
// no exception variable cannot throw.
func UncaughtExceptionTypes(r *pta.Result) []*lang.Class {
	entry := r.Prog.Entry
	if entry == nil || !entry.HasExcVar() {
		return nil
	}
	return r.VarTypes(entry.ExcVar())
}

// MayAlias reports whether two variables may point to the same abstract
// object (their context-insensitively projected points-to sets
// intersect).
//
// May-alias is exactly the client class the paper warns Mahjong is NOT
// meant for (§1): merging type-consistent objects preserves pointed-to
// *types* but deliberately conflates object *identities*, so a
// Mahjong-based analysis reports more aliases than the allocation-site
// baseline. See the integration tests for a demonstration on Figure 1.
func MayAlias(r *pta.Result, a, b *lang.Var) bool {
	return r.VarPointsTo(a).Intersects(r.VarPointsTo(b))
}

// AliasPairs counts the may-aliasing unordered pairs among the given
// variables; a coarse whole-set alias metric used to quantify the
// alias-precision loss of coarser heap abstractions.
func AliasPairs(r *pta.Result, vars []*lang.Var) int {
	n := 0
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			if MayAlias(r, vars[i], vars[j]) {
				n++
			}
		}
	}
	return n
}

// SafeCasts returns the reachable casts proven safe.
func SafeCasts(r *pta.Result) []*lang.Cast {
	fail := map[*lang.Cast]bool{}
	for _, c := range MayFailCasts(r) {
		fail[c] = true
	}
	var out []*lang.Cast
	for _, rc := range r.ReachableCasts() {
		if !fail[rc.Stmt] {
			out = append(out, rc.Stmt)
		}
	}
	return out
}
