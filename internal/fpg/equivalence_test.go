package fpg

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
)

// referenceBuild is the map-based FPG construction the builder used to
// run: facts collected into a (node, field) -> targets map, null
// completion over that map, then a sort per target list and per node.
// It is the oracle for the direct, map-free builder.
func referenceBuild(r *pta.Result, opts Options) *Graph {
	g := &Graph{
		nodeOf:  make(map[*pta.Obj]int),
		typeOf:  make(map[*lang.Class]int),
		fieldOf: make(map[*lang.Field]int),
	}
	g.Objs = append(g.Objs, nil)
	g.TypeOf = append(g.TypeOf, NullType)
	g.Types = append(g.Types, nil)
	g.Out = append(g.Out, nil)
	objs := append([]*pta.Obj(nil), r.Objs()...)
	sort.Slice(objs, func(i, j int) bool {
		oi, oj := objs[i], objs[j]
		if oi.Rep != nil && oj.Rep != nil && oi.Rep != oj.Rep {
			return oi.Rep.ID < oj.Rep.ID
		}
		return oi.ID < oj.ID
	})
	for _, o := range objs {
		g.addNode(o)
	}
	type key struct{ node, field int }
	edges := make(map[key][]int)
	r.FieldPointsTo(func(base *pta.Obj, field *lang.Field, targets []*pta.Obj) {
		bn, ok := g.nodeOf[base]
		if !ok {
			return
		}
		k := key{bn, g.fieldID(field)}
		for _, t := range targets {
			if tn, ok := g.nodeOf[t]; ok {
				edges[k] = append(edges[k], tn)
			}
		}
	})
	if !opts.OmitNullNode {
		for id := 1; id < len(g.Objs); id++ {
			for _, f := range g.Objs[id].Type.InstanceFields() {
				k := key{id, g.fieldID(f)}
				if len(edges[k]) == 0 {
					edges[k] = []int{NullNode}
				}
			}
		}
	}
	byNode := make(map[int][]Edge)
	for k, tgts := range edges {
		sort.Ints(tgts)
		tgts = dedupSorted(tgts)
		byNode[k.node] = append(byNode[k.node], Edge{Field: k.field, Targets: tgts})
	}
	for id := 1; id < len(g.Objs); id++ {
		es := byNode[id]
		sort.Slice(es, func(i, j int) bool { return es[i].Field < es[j].Field })
		g.Out[id] = es
	}
	return g
}

// equivalencePrograms returns every IR program under examples/ and the
// committed adversarial corpus.
func equivalencePrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	var files []string
	for _, pat := range []string{"../../examples/*/*.ir", "../../testdata/corpus/*.ir"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 10 {
		t.Fatalf("found only %d programs under examples/ and testdata/corpus/", len(files))
	}
	progs := make(map[string]*lang.Program, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parser.Parse(f, string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[f] = p
	}
	return progs
}

// sameGraph compares the exported shape of two graphs: node objects and
// types, the type and field tables, and every adjacency list.
func sameGraph(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Objs, want.Objs) || !reflect.DeepEqual(got.TypeOf, want.TypeOf) {
		t.Fatalf("%s: node tables differ", tag)
	}
	if !reflect.DeepEqual(got.Types, want.Types) || !reflect.DeepEqual(got.Fields, want.Fields) {
		t.Fatalf("%s: type/field tables differ (%d/%d fields)", tag, len(got.Fields), len(want.Fields))
	}
	for id := range want.Out {
		g, w := got.Out[id], want.Out[id]
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: node %d edges\n got: %v\nwant: %v", tag, id, g, w)
		}
	}
}

// The direct builder must produce exactly the graph the map-based
// construction did — same node and field numbering, same edges — on the
// pre-analysis of every example and corpus program, with and without
// null nodes, and on a context-sensitive result where several heap
// contexts project onto one object.
func TestBuildMatchesMapBasedReference(t *testing.T) {
	for name, prog := range equivalencePrograms(t) {
		for _, cfg := range []struct {
			tag string
			sel pta.Selector
		}{{"ci", pta.CI{}}, {"2obj", pta.KObj{K: 2}}} {
			r, err := pta.Solve(prog, pta.Options{Selector: cfg.sel})
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.tag, err)
			}
			for _, omit := range []bool{false, true} {
				opts := Options{OmitNullNode: omit}
				tag := name + " " + cfg.tag
				if omit {
					tag += " (no null node)"
				}
				sameGraph(t, tag, Build(r, opts), referenceBuild(r, opts))
			}
		}
	}
}
