package main

// The traced run calls each layer's public function itself, in the
// order mahjong.BuildAbstraction, BuildAbstractionDelta and Analyze
// call them, and wraps every call in a span. The untraced run uses the
// public mahjong API; the traced run's outputs are checked against it.

import (
	"context"
	"fmt"
	"math"

	"mahjong/internal/budget"
	"mahjong/internal/clients"
	"mahjong/internal/core"
	"mahjong/internal/delta"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
)

// outcome is what one pipeline run answers; two runs of the same
// program and analysis must produce equal outcomes.
type outcome struct {
	Objects, Merged int
	Metrics         clients.Metrics
	CSObjects       int
	Work            int64
}

func selector(analysis string) pta.Selector {
	switch analysis {
	case "2obj":
		return pta.KObj{K: 2}
	case "3obj":
		return pta.KObj{K: 3}
	}
	return pta.CI{}
}

func (b *bench) parse(op, parent int, name, text string) (*lang.Program, error) {
	s := b.rec.start(op, parent, "parse")
	p, err := parser.Parse(name, text)
	s.end(map[string]int64{"bytes": int64(len(text))})
	return p, err
}

func solveCounts(r *pta.Result) map[string]int64 {
	st := r.Stats()
	return map[string]int64{
		"nodes":           int64(st.Nodes),
		"edges":           int64(st.Edges),
		"propagated_bits": st.PropagatedBits,
		"scc_passes":      int64(st.SCCPasses),
		"collapsed_nodes": int64(st.CollapsedNodes),
		"work":            r.Work,
		"cs_objects":      int64(r.NumCSObjs()),
	}
}

// built is a traced abstraction build: the pre-analysis it ran on and
// the modeler's result, which carries the merge decisions the next
// incremental build reuses.
type built struct {
	prog *lang.Program
	pre  *pta.Result
	res  *core.Result
}

// build runs pre-analysis → FPG → heap modeler, keeping the merge
// decisions for a later incremental build when capture is set. With a
// base it runs the incremental path of mahjong.BuildAbstractionDelta:
// diff, warm-seeded pre-analysis, and merge reuse.
func (b *bench) build(op, parent int, p *lang.Program, base *built, capture bool) (*built, *pta.IncrementalStats, error) {
	ctx := context.Background()
	prefix := ""
	var d *delta.Diff
	var reuse *core.ReuseState
	if base != nil {
		prefix = "edit."
		s := b.rec.start(op, parent, "edit.diff")
		var err error
		d, err = delta.Compute(base.prog, p, delta.Options{})
		changed := int64(0)
		if err == nil {
			changed = int64(len(d.Changed))
		}
		s.end(map[string]int64{"changed_methods": changed})
		if err != nil {
			d = nil
		}
		reuse = base.res.ReuseState
	}

	var (
		pre *pta.Result
		st  *pta.IncrementalStats
		err error
	)
	preName := "pre"
	if base != nil {
		preName = "edit.solve"
	}
	s := b.rec.start(op, parent, preName)
	if d != nil {
		pre, st, err = pta.SolveIncrementalContext(ctx, p, pta.Options{}, base.pre, d)
	} else {
		pre, err = pta.SolveContext(ctx, p, pta.Options{})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("pre-analysis: %w", err)
	}
	c := solveCounts(pre)
	if st != nil {
		c["seeded_facts"] = st.SeededFacts
	}
	s.end(c)

	// A meter with an unreachable limit counts what a stage consumes:
	// field points-to facts here, equivalence tests in the modeler.
	facts := budget.NewMeter(budget.Limits{Facts: math.MaxInt64})
	s = b.rec.start(op, parent, prefix+"fpg")
	g, err := fpg.BuildContext(ctx, pre, fpg.Options{Meter: facts})
	if err != nil {
		return nil, nil, fmt.Errorf("fpg: %w", err)
	}
	f, _, _ := facts.Usage()
	s.end(map[string]int64{"field_facts": f})

	pairs := budget.NewMeter(budget.Limits{MergePairs: math.MaxInt64})
	s = b.rec.start(op, parent, prefix+"model")
	res, err := core.BuildContext(ctx, g, core.Options{Meter: pairs, Reuse: reuse, CaptureReuse: capture})
	if err != nil {
		return nil, nil, fmt.Errorf("heap modeling: %w", err)
	}
	_, _, mp := pairs.Usage()
	s.end(map[string]int64{
		"merge_pairs":     mp,
		"dfa_states":      int64(res.DFAStates),
		"reused_groups":   int64(res.ReusedGroups),
		"remerged_groups": int64(res.RemergedGroups),
	})
	return &built{prog: p, pre: pre, res: res}, st, nil
}

// analyze runs the main analysis on the merged heap and the clients.
func (b *bench) analyze(op, parent int, p *lang.Program, analysis string, mom map[*lang.AllocSite]*lang.AllocSite) (*pta.Result, clients.Metrics, error) {
	s := b.rec.start(op, parent, "main")
	r, err := pta.SolveContext(context.Background(), p, pta.Options{
		Selector: selector(analysis),
		Heap:     pta.NewMergedSiteModel(mom),
	})
	if err != nil {
		return nil, clients.Metrics{}, fmt.Errorf("main analysis: %w", err)
	}
	if r.Aborted {
		return nil, clients.Metrics{}, fmt.Errorf("main analysis: %w", pta.ErrBudget)
	}
	s.end(solveCounts(r))
	s = b.rec.start(op, parent, "clients")
	m := clients.Evaluate(r)
	s.end(map[string]int64{"call_graph_edges": int64(m.CallGraphEdges)})
	return r, m, nil
}

func tracedOutcome(res *core.Result, r *pta.Result, m clients.Metrics) outcome {
	return outcome{Objects: res.NumObjects, Merged: res.NumMerged, Metrics: m, CSObjects: r.NumCSObjs(), Work: r.Work}
}
