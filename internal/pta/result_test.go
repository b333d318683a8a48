package pta

import (
	"fmt"
	"sort"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/synth"
)

// naiveFieldPointsTo rebuilds the field projection straight from the
// solver's field nodes: every (CSObj, field) node's set, mapped to
// abstract objects and unioned per (Obj, field).
func naiveFieldPointsTo(r *Result) map[string][]string {
	s := r.solver
	sets := map[string]map[*Obj]bool{}
	for cs, slots := range s.objFields {
		for _, fs := range slots {
			k := fmt.Sprintf("%d/%d", s.csobjs[cs].Obj.ID, fs.field)
			if sets[k] == nil {
				sets[k] = map[*Obj]bool{}
			}
			s.ptsAt(int(fs.node)).ForEach(func(t int) bool {
				sets[k][s.csobjs[t].Obj] = true
				return true
			})
		}
	}
	out := map[string][]string{}
	for k, set := range sets {
		labels := []string{}
		for o := range set {
			labels = append(labels, o.Rep.Label)
		}
		sort.Strings(labels)
		out[k] = labels
	}
	return out
}

// TestFieldPointsToContract pins the projection's contract on 2obj
// results, where one abstract object has field nodes under several heap
// contexts: keys ascend by (Obj.ID, Field.ID), each key appears once,
// targets ascend strictly by Obj.ID (so they are deduplicated), and the
// relation equals the naive union over the solver's field nodes.
func TestFieldPointsToContract(t *testing.T) {
	luindex, err := synth.ProfileByName("luindex")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.Generate(luindex)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*lang.Program{gen}
	for seed := int64(1); seed <= 4; seed++ {
		progs = append(progs, synth.RandomProgram(seed))
	}
	multiContext := 0
	for seed, prog := range progs {
		r, err := Solve(prog, Options{Selector: KObj{K: 2}})
		if err != nil {
			t.Fatalf("program %d: %v", seed, err)
		}
		perObj := map[*Obj]int{}
		for cs, slots := range r.solver.objFields {
			if len(slots) > 0 {
				perObj[r.solver.csobjs[cs].Obj]++
			}
		}
		for _, n := range perObj {
			if n > 1 {
				multiContext++
			}
		}

		got := map[string][]string{}
		lastObj, lastField := -1, -1
		r.FieldPointsTo(func(base *Obj, f *lang.Field, targets []*Obj) {
			if base.ID < lastObj || base.ID == lastObj && f.ID <= lastField {
				t.Fatalf("program %d: key (%d,%d) after (%d,%d)", seed, base.ID, f.ID, lastObj, lastField)
			}
			lastObj, lastField = base.ID, f.ID
			labels := []string{}
			for i, o := range targets {
				if i > 0 && targets[i-1].ID >= o.ID {
					t.Fatalf("program %d: targets of (%s, %s) not strictly ascending", seed, base, f.Name)
				}
				labels = append(labels, o.Rep.Label)
			}
			sort.Strings(labels)
			got[fmt.Sprintf("%d/%d", base.ID, f.ID)] = labels
		})
		want := naiveFieldPointsTo(r)
		if len(got) != len(want) {
			t.Fatalf("program %d: %d keys, naive projection has %d", seed, len(got), len(want))
		}
		for k, w := range want {
			if !equalStrings(got[k], w) {
				t.Fatalf("program %d: key %s\n got: %v\nwant: %v", seed, k, got[k], w)
			}
		}
	}
	if multiContext == 0 {
		t.Fatal("no object had field nodes under several heap contexts: the test exercised no merging")
	}
}
