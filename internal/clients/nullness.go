package clients

import (
	"fmt"
	"sort"

	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// LoadSite names one instance-field load statement.
type LoadSite struct {
	Method *lang.Method
	Index  int // statement index within Method.Stmts
	Load   *lang.Load
}

func (l LoadSite) String() string {
	return fmt.Sprintf("%s/stmt#%d %s.%s", l.Method, l.Index, l.Load.Base.Name, l.Load.Field.Name)
}

// MayNullLoads returns the reachable instance-field loads (array element
// loads included) that may observe an uninitialized — hence null — field:
// some object the base may point to has no recorded store into the loaded
// field. Loads whose base points to nothing are vacuously non-null here
// (they never execute a dereference the analysis can see). Static-field
// loads are out of scope.
//
// Unlike escape and taint, nullness is NOT monotone under heap merging:
// merging an initialized object into an uninitialized sibling hides the
// missing store (fewer warnings), while coarser points-to sets add base
// objects (more warnings). The differential harness therefore checks
// nullness only on the exact-equivalence axes, not Mahjong-vs-alloc-site;
// it is exactly the kind of identity-dependent client the paper scopes
// Mahjong away from (§1).
func MayNullLoads(r *pta.Result) []LoadSite { return mayNullLoads(r, projectHeap(r)) }

func mayNullLoads(r *pta.Result, heap heapFacts) []LoadSite {
	written := heap.written

	// One sweep resolves every load base's pointees.
	bases := map[*lang.Var]bool{}
	for _, m := range r.Prog.Methods {
		if m.IsAbstract || !r.ReachableMethod(m) {
			continue
		}
		for _, st := range m.Stmts {
			if ld, ok := st.(*lang.Load); ok {
				bases[ld.Base] = true
			}
		}
	}
	baseObjs := map[*lang.Var]map[*pta.Obj]bool{}
	r.ForEachVarObj(func(v *lang.Var, o *pta.Obj) {
		if !bases[v] {
			return
		}
		set := baseObjs[v]
		if set == nil {
			set = map[*pta.Obj]bool{}
			baseObjs[v] = set
		}
		set[o] = true
	})

	var out []LoadSite
	for _, m := range r.Prog.Methods {
		if m.IsAbstract || !r.ReachableMethod(m) {
			continue
		}
		for i, st := range m.Stmts {
			ld, ok := st.(*lang.Load)
			if !ok {
				continue
			}
			for o := range baseObjs[ld.Base] {
				if !written[objField{o, ld.Field}] {
					out = append(out, LoadSite{Method: m, Index: i, Load: ld})
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method.ID < out[j].Method.ID
		}
		return out[i].Index < out[j].Index
	})
	return out
}
