package pta

import (
	"slices"
	"sort"

	"mahjong/internal/bitset"
	"mahjong/internal/lang"
)

// CSObjs returns all context-sensitive objects, indexed by their IDs
// (the bit positions of points-to sets). Under Options.Renumber the
// slice may contain nil holes — reserved class-block slots no object
// was ever interned into; points-to bits only ever reference non-nil
// entries, so consumers that dereference at set bits are unaffected,
// but a full scan must skip nils.
func (r *Result) CSObjs() []*CSObj { return r.solver.csobjs }

// Objs returns the abstract objects the heap model created during the run.
func (r *Result) Objs() []*Obj { return r.solver.opts.Heap.Objs() }

// NumCSObjs returns the number of context-sensitive objects interned
// during the run (the non-nil CSObjs entries — not the slice length,
// which under Options.Renumber includes reserved holes).
func (r *Result) NumCSObjs() int { return r.solver.numCSObjs }

// NumNodes returns the number of pointer nodes in the flow graph.
func (r *Result) NumNodes() int { return len(r.solver.nodes) }

// NumReachableMethods returns context-insensitively distinct reachable methods.
func (r *Result) NumReachableMethods() int { return r.solver.ciReach.Len() }

// NumCSMethods returns (context, method) pairs analyzed.
func (r *Result) NumCSMethods() int { return len(r.solver.reachList) }

// ReachableMethod reports whether m is reachable under any context.
func (r *Result) ReachableMethod(m *lang.Method) bool {
	ms := r.Prog.Methods
	return m.ID < len(ms) && ms[m.ID] == m && r.solver.ciReach.Contains(m.ID)
}

// VarPointsTo returns the context-insensitive projection of v's
// points-to set: the union over all analyzed contexts, as a set of
// CSObj IDs.
func (r *Result) VarPointsTo(v *lang.Var) *bitset.Set {
	out := bitset.New(0)
	r.solver.forEachVarNode(v, func(id int) {
		out.Union(r.solver.ptsAt(id))
	})
	return out
}

// VarObjs returns the abstract objects v may point to, deduplicated and
// ordered by object ID.
func (r *Result) VarObjs(v *lang.Var) []*Obj {
	seen := map[*Obj]bool{}
	var out []*Obj
	r.VarPointsTo(v).ForEach(func(i int) bool {
		o := r.solver.csobjs[i].Obj
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ForEachVarObj calls fn for every (variable, abstract object) pair of
// the result: v may point to o under some analyzed context. Unlike
// VarPointsTo/VarObjs it materializes no per-variable sets, so whole-
// program clients (escape, nullness, taint) can sweep all variables
// cheaply. Pairs arrive in no particular order and a pair may repeat
// when a variable points to the same object under several contexts; fn
// must be idempotent.
func (r *Result) ForEachVarObj(fn func(v *lang.Var, o *Obj)) {
	s := r.solver
	for _, c := range s.csMethods {
		slots := s.varSlots[c.base : c.base+c.n]
		for i, id := range slots {
			if id < 0 {
				continue
			}
			v := c.m.Locals[i]
			s.ptsAt(int(id)).ForEach(func(o int) bool {
				fn(v, s.csobjs[o].Obj)
				return true
			})
		}
	}
}

// VarTypes returns the set of types v may point to, sorted by name.
func (r *Result) VarTypes(v *lang.Var) []*lang.Class {
	seen := map[*lang.Class]bool{}
	var out []*lang.Class
	for _, o := range r.VarObjs(v) {
		if !seen[o.Type] {
			seen[o.Type] = true
			out = append(out, o.Type)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FieldPointsTo returns the context-insensitive points-to relation for
// object fields: for each (abstract object, field) pair that has a
// points-to set, fn is called with the union over heap contexts as
// abstract objects. Keys arrive in ascending (Obj.ID, Field.ID) order;
// targets are deduplicated and ascending by Obj.ID. fn owns targets.
// It drives the FPG builder.
//
// The relation is a projection of the solver's field nodes: each
// object's field slots are already sorted by field ID, and every
// (object, field) set is unioned into one reusable bitset over Obj.ID,
// whose ascending iteration is the sorted, deduplicated target list.
func (r *Result) FieldPointsTo(fn func(base *Obj, field *lang.Field, targets []*Obj)) {
	s := r.solver
	// Group the CSObjs of each abstract object (counting sort by Obj.ID).
	nObj := 0
	for _, id := range s.internLog {
		nObj = max(nObj, s.csobjs[id].Obj.ID+1)
	}
	objs := make([]*Obj, nObj)
	start := make([]int32, nObj+1)
	for _, id := range s.internLog {
		o := s.csobjs[id].Obj
		objs[o.ID] = o
		start[o.ID+1]++
	}
	for i := 1; i <= nObj; i++ {
		start[i] += start[i-1]
	}
	byObj := make([]int32, len(s.internLog))
	fill := slices.Clone(start[:nObj])
	for _, id := range s.internLog {
		o := s.csobjs[id].Obj.ID
		byObj[fill[o]] = id
		fill[o]++
	}

	var (
		acc    bitset.Set
		merged []fieldSlot
		arena  []*Obj
	)
	for oid, o := range objs {
		css := byObj[start[oid]:start[oid+1]]
		if len(css) == 0 {
			continue
		}
		slots := s.objFields[css[0]]
		if len(css) > 1 {
			merged = merged[:0]
			for _, cs := range css {
				merged = append(merged, s.objFields[cs]...)
			}
			slices.SortFunc(merged, func(a, b fieldSlot) int { return int(a.field) - int(b.field) })
			slots = merged
		}
		for i := 0; i < len(slots); {
			fid := slots[i].field
			acc.Clear()
			for ; i < len(slots) && slots[i].field == fid; i++ {
				s.ptsAt(int(slots[i].node)).ForEach(func(t int) bool {
					acc.Add(s.csobjs[t].Obj.ID)
					return true
				})
			}
			n := acc.Len()
			if cap(arena)-len(arena) < n {
				arena = make([]*Obj, 0, max(n, 4096))
			}
			out := arena[len(arena) : len(arena) : len(arena)+n]
			acc.ForEach(func(t int) bool {
				out = append(out, objs[t])
				return true
			})
			arena = arena[:len(arena)+n]
			fn(o, s.prog.Fields[fid], out)
		}
	}
}

// CallEdge is one context-insensitive call-graph edge.
type CallEdge struct {
	Site   *lang.Invoke
	Callee *lang.Method
}

// CallGraphEdges returns the context-insensitive call graph as a sorted
// edge list (by call-site ID, then callee ID).
func (r *Result) CallGraphEdges() []CallEdge {
	out := make([]CallEdge, 0, r.solver.ciEdges)
	for _, site := range r.solver.ciSites {
		first := len(out)
		for _, m := range site.callees {
			out = append(out, CallEdge{Site: site.inv, Callee: m})
		}
		tail := out[first:]
		sort.Slice(tail, func(i, j int) bool { return tail[i].Callee.ID < tail[j].Callee.ID })
	}
	return out
}

// NumCallGraphEdges counts context-insensitive call-graph edges.
func (r *Result) NumCallGraphEdges() int { return r.solver.ciEdges }

// CallTargets returns the distinct dispatch targets discovered for a
// call site, sorted by method ID.
func (r *Result) CallTargets(inv *lang.Invoke) []*lang.Method {
	sites := r.solver.ciSites
	if inv.ID >= len(sites) || sites[inv.ID].inv != inv {
		return []*lang.Method{}
	}
	out := slices.Clone(sites[inv.ID].callees)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReachableCast is one reachable cast statement together with the types
// that may flow into it (the unfiltered points-to set of its operand,
// unioned over contexts).
type ReachableCast struct {
	Stmt     *lang.Cast
	Incoming []*Obj
}

// ReachableCasts returns every cast statement reached by the analysis
// (deduplicated over contexts), with incoming abstract objects, sorted
// by the order casts were first discovered.
func (r *Result) ReachableCasts() []ReachableCast {
	byStmt := make(map[*lang.Cast]map[*Obj]bool)
	var order []*lang.Cast
	for _, cs := range r.solver.casts {
		set := byStmt[cs.stmt]
		if set == nil {
			set = make(map[*Obj]bool)
			byStmt[cs.stmt] = set
			order = append(order, cs.stmt)
		}
		r.solver.ptsAt(cs.rhsNode).ForEach(func(i int) bool {
			set[r.solver.csobjs[i].Obj] = true
			return true
		})
	}
	out := make([]ReachableCast, 0, len(order))
	for _, stmt := range order {
		objs := make([]*Obj, 0, len(byStmt[stmt]))
		for o := range byStmt[stmt] {
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
		out = append(out, ReachableCast{Stmt: stmt, Incoming: objs})
	}
	return out
}

// ReachableInvokes returns every virtual call site reached by the
// analysis, sorted by site ID. Static and special calls are excluded:
// they are never poly-calls.
func (r *Result) ReachableInvokes() []*lang.Invoke {
	var out []*lang.Invoke
	for _, site := range r.solver.ciSites {
		if site.inv != nil && site.inv.Kind == lang.VirtualCall {
			out = append(out, site.inv)
		}
	}
	return out
}
