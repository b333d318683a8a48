package main

// Output checks. Every reference here is independent of the code that
// produced the output: the paper's Figure 1 answers (§2.1), Definition
// 2.1 re-implemented over the field points-to graph without the heap
// modeler (internal/core) or its automata (internal/automata), and the
// soundness ordering of M-A against the allocation-site analysis A.

import (
	_ "embed"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mahjong"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

//go:embed figure1.ir
var figure1IR string

// figure1Sites parses the Figure 1 program and returns it with o1..o6,
// the allocations of Main.main in statement order.
func figure1Sites() (*mahjong.Program, []*lang.AllocSite, error) {
	p, err := mahjong.ParseProgram("figure1.ir", figure1IR)
	if err != nil {
		return nil, nil, err
	}
	var sites []*lang.AllocSite
	for _, st := range p.Entry.Stmts {
		if a, ok := st.(*lang.Alloc); ok {
			sites = append(sites, a.Site)
		}
	}
	if len(sites) != 6 {
		return nil, nil, fmt.Errorf("figure 1: %d allocations, want 6", len(sites))
	}
	return p, sites, nil
}

// knownAnswerGate runs Figure 1 through the pipeline and requires the
// paper's answers: o2≡o3 and o5≡o6 (6 → 4 objects), M-2obj with no
// poly call site and no may-fail cast, and the allocation-type
// abstraction with one of each. It also requires the Definition 2.1
// check to accept the built MOM and to reject one that merges o1 with o2.
func knownAnswerGate() error {
	p, o, err := figure1Sites()
	if err != nil {
		return err
	}
	abs, err := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
	if err != nil {
		return fmt.Errorf("figure 1: %w", err)
	}
	if abs.Objects != 6 || abs.MergedObjects != 4 {
		return fmt.Errorf("figure 1: %d → %d objects, want 6 → 4", abs.Objects, abs.MergedObjects)
	}
	rep := func(i int) *lang.AllocSite { return abs.MOM[o[i-1]] }
	if rep(2) != rep(3) || rep(5) != rep(6) {
		return fmt.Errorf("figure 1: o2≡o3 and o5≡o6 not both merged")
	}
	distinct := map[*lang.AllocSite]bool{rep(1): true, rep(2): true, rep(4): true, rep(5): true}
	if len(distinct) != 4 {
		return fmt.Errorf("figure 1: o1, o2, o4, o5 must stay in distinct classes")
	}

	m, err := mahjong.Analyze(p, mahjong.Config{Analysis: "2obj", Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		return fmt.Errorf("figure 1 M-2obj: %w", err)
	}
	if m.Metrics.PolyCallSites != 0 || m.Metrics.MayFailCasts != 0 {
		return fmt.Errorf("figure 1 M-2obj: %d poly call sites, %d may-fail casts, want 0 and 0",
			m.Metrics.PolyCallSites, m.Metrics.MayFailCasts)
	}
	t, err := mahjong.Analyze(p, mahjong.Config{Analysis: "2obj", Heap: mahjong.HeapAllocType})
	if err != nil {
		return fmt.Errorf("figure 1 alloc-type: %w", err)
	}
	if t.Metrics.PolyCallSites != 1 || t.Metrics.MayFailCasts != 1 {
		return fmt.Errorf("figure 1 alloc-type: %d poly call sites, %d may-fail casts, want 1 and 1",
			t.Metrics.PolyCallSites, t.Metrics.MayFailCasts)
	}

	g, err := fieldGraphOf(p)
	if err != nil {
		return err
	}
	if err := g.checkMOM(abs.MOM); err != nil {
		return fmt.Errorf("figure 1: Definition 2.1 rejects the built MOM: %w", err)
	}
	if g.checkMOM(figure1BadMerge(o)) == nil {
		return fmt.Errorf("figure 1: Definition 2.1 check accepts a MOM merging o1 with o2")
	}
	return nil
}

// figure1BadMerge is a hand-made MOM that merges o1 (whose f holds a B)
// with o2 (whose f holds a C): single-typed, but not type-consistent.
func figure1BadMerge(o []*lang.AllocSite) map[*lang.AllocSite]*lang.AllocSite {
	mom := map[*lang.AllocSite]*lang.AllocSite{}
	for _, s := range o {
		mom[s] = s
	}
	mom[o[1]] = o[0]
	return mom
}

// fieldGraph is the field points-to graph of §3.1 built from the
// context-insensitive allocation-site pre-analysis: node 0 is o_null,
// every instance field an object has with no recorded target points to
// o_null, and o_null points to itself along every field.
type fieldGraph struct {
	node map[*lang.AllocSite]int
	typ  []*lang.Class // typ[0] is nil, the type of o_null
	out  []map[*lang.Field][]int
}

// fieldGraphOf runs the pre-analysis on p and builds its graph.
func fieldGraphOf(p *mahjong.Program) (*fieldGraph, error) {
	pre, err := pta.Solve(p, pta.Options{})
	if err != nil {
		return nil, fmt.Errorf("pre-analysis for the Definition 2.1 check: %w", err)
	}
	return newFieldGraph(pre), nil
}

func newFieldGraph(pre *pta.Result) *fieldGraph {
	g := &fieldGraph{
		node: map[*lang.AllocSite]int{},
		typ:  []*lang.Class{nil},
		out:  []map[*lang.Field][]int{nil},
	}
	objNode := map[*pta.Obj]int{}
	for _, o := range pre.Objs() {
		id := len(g.typ)
		objNode[o] = id
		g.typ = append(g.typ, o.Type)
		g.out = append(g.out, map[*lang.Field][]int{})
		for _, s := range o.Sites {
			g.node[s] = id
		}
	}
	pre.FieldPointsTo(func(base *pta.Obj, f *lang.Field, targets []*pta.Obj) {
		b, ok := objNode[base]
		if !ok {
			return
		}
		for _, t := range targets {
			if id, ok := objNode[t]; ok {
				g.out[b][f] = append(g.out[b][f], id)
			}
		}
	})
	for id := 1; id < len(g.typ); id++ {
		for _, f := range g.typ[id].InstanceFields() {
			if len(g.out[id][f]) == 0 {
				g.out[id][f] = []int{0}
			}
		}
		for f, ts := range g.out[id] {
			slices.Sort(ts)
			g.out[id][f] = slices.Compact(ts)
		}
	}
	return g
}

// step returns the union of the successors of the nodes in s along f.
func (g *fieldGraph) step(s []int, f *lang.Field) []int {
	var next []int
	for _, n := range s {
		if n == 0 {
			next = append(next, 0)
			continue
		}
		next = append(next, g.out[n][f]...)
	}
	slices.Sort(next)
	return slices.Compact(next)
}

// typeKey names the set of types of the nodes in s.
func (g *fieldGraph) typeKey(s []int) string {
	names := make([]string, 0, len(s))
	for _, n := range s {
		if n == 0 {
			names = append(names, "<null>")
		} else {
			names = append(names, g.typ[n].Name)
		}
	}
	slices.Sort(names)
	return strings.Join(slices.Compact(names), ",")
}

func nodesKey(s []int) string {
	var b strings.Builder
	for _, n := range s {
		b.WriteString(strconv.Itoa(n))
		b.WriteByte(' ')
	}
	return b.String()
}

// consistent decides Definition 2.1 for nodes a and b: along every field
// path both reach objects of the same set of types. It walks the subset
// constructions of the two automata in lockstep and returns a field path
// on which they differ, or "" when they agree everywhere.
func (g *fieldGraph) consistent(a, b int) (witness string, ok bool) {
	type pair struct {
		x, y []int
		path string
	}
	seen := map[string]bool{}
	work := []pair{{[]int{a}, []int{b}, ""}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		k := nodesKey(p.x) + "|" + nodesKey(p.y)
		if seen[k] {
			continue
		}
		seen[k] = true
		if g.typeKey(p.x) != g.typeKey(p.y) {
			return p.path, false
		}
		fields := map[*lang.Field]bool{}
		for _, s := range [][]int{p.x, p.y} {
			for _, n := range s {
				if n != 0 {
					for f := range g.out[n] {
						fields[f] = true
					}
				}
			}
		}
		for f := range fields {
			work = append(work, pair{g.step(p.x, f), g.step(p.y, f), p.path + "." + f.Name})
		}
	}
	return "", true
}

// checkMOM verifies a merged-object map: every class is closed under its
// representative, single-typed, and type-consistent with it.
func (g *fieldGraph) checkMOM(mom map[*lang.AllocSite]*lang.AllocSite) error {
	sites := make([]*lang.AllocSite, 0, len(mom))
	for s := range mom {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].ID < sites[j].ID })
	for _, s := range sites {
		rep := mom[s]
		if s == rep {
			continue
		}
		if mom[rep] != rep {
			return fmt.Errorf("%s: representative %s is not its own representative", s.Label, rep.Label)
		}
		if s.Type != rep.Type {
			return fmt.Errorf("%s: type %s merged into %s of type %s", s.Label, s.Type.Name, rep.Label, rep.Type.Name)
		}
		a, okA := g.node[s]
		b, okB := g.node[rep]
		if !okA || !okB {
			return fmt.Errorf("%s merged into %s: a site missing from the field points-to graph", s.Label, rep.Label)
		}
		if path, ok := g.consistent(a, b); !ok {
			return fmt.Errorf("%s merged into %s: types differ along path %q", s.Label, rep.Label, path)
		}
	}
	return nil
}

// typeSets maps every variable to the set of types it may point to.
func typeSets(r *pta.Result) map[*lang.Var]map[*lang.Class]bool {
	out := map[*lang.Var]map[*lang.Class]bool{}
	r.ForEachVarObj(func(v *lang.Var, o *pta.Obj) {
		ts := out[v]
		if ts == nil {
			ts = map[*lang.Class]bool{}
			out[v] = ts
		}
		ts[o.Type] = true
	})
	return out
}

// checkSound requires the M-A type set of every variable to contain its
// allocation-site type set (DESIGN.md §6): merging objects may only add
// types, never lose one.
func checkSound(merged, allocSite map[*lang.Var]map[*lang.Class]bool) error {
	vars := 0
	for v, ts := range allocSite {
		for t := range ts {
			if !merged[v][t] {
				return fmt.Errorf("variable %s: alloc-site type %s missing under M-A", v, t.Name)
			}
		}
		vars++
	}
	if vars == 0 {
		return fmt.Errorf("alloc-site analysis reports no variable with a points-to set")
	}
	return nil
}

// momByLabel renders a MOM by stable allocation-site labels, so that
// abstractions of two separately parsed copies of a program compare.
func momByLabel(mom map[*lang.AllocSite]*lang.AllocSite) map[string]string {
	out := make(map[string]string, len(mom))
	for s, rep := range mom {
		out[s.Label] = rep.Label
	}
	return out
}

// sameMOM compares two label-keyed MOMs and names the first site (in
// label order) on which they differ.
func sameMOM(a, b map[string]string) error {
	labels := make([]string, 0, len(a)+len(b))
	for s := range a {
		labels = append(labels, s)
	}
	for s := range b {
		if _, ok := a[s]; !ok {
			labels = append(labels, s)
		}
	}
	sort.Strings(labels)
	for _, s := range labels {
		ra, inA := a[s]
		rb, inB := b[s]
		switch {
		case !inB:
			return fmt.Errorf("%d sites against %d: %s only in the first", len(a), len(b), s)
		case !inA:
			return fmt.Errorf("%d sites against %d: %s only in the second", len(a), len(b), s)
		case ra != rb:
			return fmt.Errorf("site %s: representative %s against %s", s, ra, rb)
		}
	}
	return nil
}
