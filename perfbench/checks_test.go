package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The Definition 2.1 check must be able to fail: merging o1 (f holds a
// B) with o2 (f holds a C) of Figure 1 is single-typed but not
// type-consistent, and the check must name the field that tells them
// apart.
func TestDefinition21RejectsFigure1BadMerge(t *testing.T) {
	p, o, err := figure1Sites()
	if err != nil {
		t.Fatal(err)
	}
	g, err := fieldGraphOf(p)
	if err != nil {
		t.Fatal(err)
	}
	err = g.checkMOM(figure1BadMerge(o))
	if err == nil {
		t.Fatal("a MOM merging o1 with o2 passed the Definition 2.1 check")
	}
	if !strings.Contains(err.Error(), `".f"`) {
		t.Errorf("error %q does not name the distinguishing path .f", err)
	}
}

func TestKnownAnswerGate(t *testing.T) {
	if err := knownAnswerGate(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the metrics the binary prints must agree, name for
// name and unit for unit, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
