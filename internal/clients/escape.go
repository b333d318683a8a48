// Escape / stack-allocation client.
//
// This client and its siblings (nullness.go, taint.go) extend the
// paper's type-dependent trio with clients whose precision depends on
// object *identity*, giving the Mahjong-vs-allocation-site comparison
// new axes: escape stays monotone under merging (a site only gains
// escape reasons when its object absorbs siblings), which makes it a
// usable differential oracle, while nullness deliberately is not (see
// nullness.go).
package clients

import (
	"maps"
	"sort"

	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// EscapeResult partitions the reachable allocation sites by a simple
// flow-insensitive escape criterion. A site's object escapes when it
// may be stored into any object field or static field, thrown, or held
// by a local of a method other than the allocating one (which covers
// returns and argument passing: the caller's or callee's variable then
// points to it). Everything else is method-confined and stack-allocable.
type EscapeResult struct {
	Escaping  []*lang.AllocSite
	Stackable []*lang.AllocSite
}

// Escape classifies every reachable allocation site. The criterion is
// evaluated per *site* against the abstraction's object for that site,
// so under a merged heap a site inherits the escape reasons of every
// site merged with it — coarser, never less sound.
func Escape(r *pta.Result) EscapeResult { return escape(r, projectHeap(r)) }

func escape(r *pta.Result, heap heapFacts) EscapeResult {
	// Object-level escape facts that apply to all merged-in sites. Being
	// stored into some object's field (including array elements) makes
	// an object heap-reachable.
	escaped := maps.Clone(heap.stored)
	// Methods whose locals may reference the object.
	holders := map[*pta.Obj]map[*lang.Method]bool{}

	// Variables whose pointees escape by statement form: static-store
	// sources (globally reachable) and thrown values (cross-method
	// control flow).
	escVars := map[*lang.Var]bool{}
	for _, m := range r.Prog.Methods {
		if m.IsAbstract || !r.ReachableMethod(m) {
			continue
		}
		for _, st := range m.Stmts {
			switch s := st.(type) {
			case *lang.StaticStore:
				escVars[s.RHS] = true
			case *lang.Throw:
				escVars[s.Value] = true
			}
		}
	}

	r.ForEachVarObj(func(v *lang.Var, o *pta.Obj) {
		hs := holders[o]
		if hs == nil {
			hs = map[*lang.Method]bool{}
			holders[o] = hs
		}
		hs[v.Method] = true
		if escVars[v] {
			escaped[o] = true
		}
	})

	var res EscapeResult
	for o, hs := range holders {
		classify(o, hs, escaped[o], &res, r)
	}
	// Objects reachable only through the heap (field targets never held
	// by a live variable) still own sites; they escaped by definition.
	for o := range escaped {
		if holders[o] == nil {
			classify(o, nil, true, &res, r)
		}
	}
	sort.Slice(res.Escaping, func(i, j int) bool { return res.Escaping[i].ID < res.Escaping[j].ID })
	sort.Slice(res.Stackable, func(i, j int) bool { return res.Stackable[i].ID < res.Stackable[j].ID })
	return res
}

func classify(o *pta.Obj, hs map[*lang.Method]bool, objEscapes bool, res *EscapeResult, r *pta.Result) {
	for _, s := range o.Sites {
		if !r.ReachableMethod(s.Method) {
			continue
		}
		esc := objEscapes
		if !esc {
			for m := range hs {
				if m != s.Method {
					esc = true
					break
				}
			}
		}
		if esc {
			res.Escaping = append(res.Escaping, s)
		} else {
			res.Stackable = append(res.Stackable, s)
		}
	}
}
