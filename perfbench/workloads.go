package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mahjong"
	"mahjong/internal/delta"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// pipelineProfile sizes the program of the three in-process workloads:
// the largest profile, on which pre-analysis and FPG construction
// dominate a cold build.
const pipelineProfile = "eclipse"

// programText generates the IR text of a seeded program of a profile.
func programText(profile string, seed int64) (string, error) {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return "", err
	}
	prof.Seed = seed
	p, err := synth.Generate(prof)
	if err != nil {
		return "", err
	}
	return parser.Print(p), nil
}

func outcomeOf(abs *mahjong.Abstraction, rep *mahjong.Report) (outcome, error) {
	if !rep.Scalable {
		return outcome{}, fmt.Errorf("analysis exceeded its budget")
	}
	return outcome{Objects: abs.Objects, Merged: abs.MergedObjects, Metrics: rep.Metrics, CSObjects: rep.CSObjects, Work: rep.Work}, nil
}

// analyzeWith runs one analysis on the Mahjong heap and its clients.
func analyzeWith(p *mahjong.Program, abs *mahjong.Abstraction, analysis string) (*mahjong.Report, outcome, error) {
	rep, err := mahjong.Analyze(p, mahjong.Config{Analysis: analysis, Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		return nil, outcome{}, err
	}
	o, err := outcomeOf(abs, rep)
	return rep, o, err
}

// sameOutcomes requires every operation to have answered like the
// reference run.
func (b *bench) sameOutcomes(what string, ref outcome, outs []outcome) {
	for i, o := range outs {
		if o != ref {
			b.problem("%s op %d: %+v, reference %+v", what, i, o, ref)
			return
		}
	}
}

// checkHeap applies the Definition 2.1 check to an abstraction of p.
func (b *bench) checkHeap(p *mahjong.Program, abs *mahjong.Abstraction) {
	g, err := fieldGraphOf(p)
	if err != nil {
		b.problem("%v", err)
		return
	}
	if err := g.checkMOM(abs.MOM); err != nil {
		b.problem("Definition 2.1: %v", err)
	}
}

// checkSoundness compares the per-variable type sets of an M-A result
// with those of the allocation-site analysis A.
func (b *bench) checkSoundness(p *mahjong.Program, merged *pta.Result, analysis string) {
	mt := typeSets(merged)
	a, err := mahjong.Analyze(p, mahjong.Config{Analysis: analysis, Heap: mahjong.HeapAllocSite})
	if err != nil {
		b.problem("alloc-site %s: %v", analysis, err)
		return
	}
	if err := checkSound(mt, typeSets(a.Result())); err != nil {
		b.problem("M-%s against alloc-site %s: %v", analysis, analysis, err)
	}
}

func (b *bench) precision(o outcome) {
	b.set("heap_objects", float64(o.Merged))
	b.set("call_graph_edges", float64(o.Metrics.CallGraphEdges))
	b.set("poly_call_sites", float64(o.Metrics.PolyCallSites))
	b.set("may_fail_casts", float64(o.Metrics.MayFailCasts))
	b.set("reachable_methods", float64(o.Metrics.Reachable))
}

// coldPipeline: each op parses the program, builds its abstraction and
// answers M-2obj with the clients — the first analysis of a new program.
func coldPipeline(b *bench) error {
	var text string
	// Generating the text is the only set-up, and a short one: five
	// repetitions keep its median steady.
	if err := b.setup(5, func() (err error) {
		text, err = programText(pipelineProfile, b.seed)
		return err
	}); err != nil {
		return err
	}
	var outs []outcome
	b.measureOps(3, func(int) error {
		p, err := mahjong.ParseProgram("cold.ir", text)
		if err != nil {
			return err
		}
		abs, err := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
		if err != nil {
			return err
		}
		_, o, err := analyzeWith(p, abs, "2obj")
		if err != nil {
			return err
		}
		outs = append(outs, o)
		return nil
	}, func(i int) error {
		root := b.rec.start(i, -1, "op")
		defer root.end(nil)
		p, err := b.parse(i, root.ID(), "cold.ir", text)
		if err != nil {
			return err
		}
		bt, _, err := b.build(i, root.ID(), p, nil, false)
		if err != nil {
			return err
		}
		r, m, err := b.analyze(i, root.ID(), p, "2obj", bt.res.MOM)
		if err != nil {
			return err
		}
		outs = append(outs, tracedOutcome(bt.res, r, m))
		return nil
	})

	p, err := mahjong.ParseProgram("cold.ir", text)
	if err != nil {
		return err
	}
	abs, err := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
	if err != nil {
		return err
	}
	rep, ref, err := analyzeWith(p, abs, "2obj")
	if err != nil {
		return err
	}
	b.sameOutcomes("cold-pipeline", ref, outs)
	b.checkHeap(p, abs)
	b.checkSoundness(p, rep.Result(), "2obj")
	b.precision(ref)
	return nil
}

// deepContext: the abstraction is built in setup; each op answers
// M-3obj with the clients, so only the main solve and the clients work.
func deepContext(b *bench) error {
	var (
		p   *mahjong.Program
		abs *mahjong.Abstraction
	)
	if err := b.setup(3, func() error {
		text, err := programText(pipelineProfile, b.seed)
		if err != nil {
			return err
		}
		if p, err = mahjong.ParseProgram("deep.ir", text); err != nil {
			return err
		}
		abs, err = mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
		return err
	}); err != nil {
		return err
	}
	var outs []outcome
	b.measureOps(3, func(int) error {
		_, o, err := analyzeWith(p, abs, "3obj")
		if err != nil {
			return err
		}
		outs = append(outs, o)
		return nil
	}, func(i int) error {
		root := b.rec.start(i, -1, "op")
		defer root.end(nil)
		r, m, err := b.analyze(i, root.ID(), p, "3obj", abs.MOM)
		if err != nil {
			return err
		}
		outs = append(outs, outcome{Objects: abs.Objects, Merged: abs.MergedObjects, Metrics: m, CSObjects: r.NumCSObjs(), Work: r.Work})
		return nil
	})

	rep, ref, err := analyzeWith(p, abs, "3obj")
	if err != nil {
		return err
	}
	b.sameOutcomes("deep-context", ref, outs)
	b.checkHeap(p, abs)
	b.checkSoundness(p, rep.Result(), "3obj")
	b.precision(ref)
	return nil
}

// editKinds are the edit kinds delta.RandomEdit produces, named by the
// prefix of its description. A session makes editRounds edits of each,
// in this order: how long an edit takes depends on the method it hits
// (a dropped statement can cost as much as a cold build), and two of
// each kind keep one seed's choice of methods from dominating.
var editKinds = []string{"insert", "duplicate", "swap", "drop"}

const editRounds = 2

// session is a base program and a chain of edits, each applied to the
// previous edit's result, all as IR text.
type session struct {
	base  string
	edits []string
	descs []string
}

func newSession(seed int64) (session, error) {
	text, err := programText(pipelineProfile, seed)
	if err != nil {
		return session{}, err
	}
	cur, err := parser.Parse("base.ir", text)
	if err != nil {
		return session{}, err
	}
	s := session{base: text}
	rng := rand.New(rand.NewSource(seed))
	prev := text
	for e := 0; e < editRounds*len(editKinds); e++ {
		kind := editKinds[e%len(editKinds)]
		for tries := 0; ; tries++ {
			if tries == 200 {
				return session{}, fmt.Errorf("no %s edit in %d tries", kind, tries)
			}
			next, desc, err := delta.RandomEdit(cur, rng)
			if err != nil {
				return session{}, err
			}
			if !strings.HasPrefix(desc, kind) {
				continue
			}
			t := parser.Print(next)
			if t == prev {
				continue
			}
			cur, prev = next, t
			s.edits = append(s.edits, t)
			s.descs = append(s.descs, desc)
			break
		}
	}
	return s, nil
}

// editOutcome is one edit's answer plus whether its build warm-started.
type editOutcome struct {
	outcome
	Warm bool
}

// editSession: one op replays the whole session from the base state;
// every edit is parsed, rebuilt incrementally on the previous edit's
// state, and answered with M-ci and the clients.
func editSession(b *bench) error {
	var (
		s    session
		base *mahjong.DeltaState
	)
	ctx := context.Background()
	if err := b.setup(3, func() (err error) {
		if s, err = newSession(b.seed); err != nil {
			return err
		}
		p, err := mahjong.ParseProgram("base.ir", s.base)
		if err != nil {
			return err
		}
		_, base, _, err = mahjong.BuildAbstractionDelta(ctx, p, mahjong.AbstractionOptions{}, nil)
		return err
	}); err != nil {
		return err
	}

	// The traced ops replay the session on their own chain of layer
	// results, from a base built here, before any span is recorded.
	var tracedBase *built
	if b.trace {
		p, err := parser.Parse("base.ir", s.base)
		if err != nil {
			return err
		}
		if tracedBase, _, err = b.build(-1, -1, p, nil, true); err != nil {
			return err
		}
	}
	var sessions [][]editOutcome
	perEdit := make([][]float64, len(s.edits))
	warmMOM := make([]map[string]string, len(s.edits))
	plainOps, warm, edits := 0, 0, 0
	b.measureOps(2, func(int) error {
		first := plainOps == 0
		plainOps++
		state := base
		outs := make([]editOutcome, len(s.edits))
		for i, text := range s.edits {
			t := time.Now()
			p, err := mahjong.ParseProgram(fmt.Sprintf("edit%d.ir", i), text)
			if err != nil {
				return err
			}
			abs, next, out, err := mahjong.BuildAbstractionDelta(ctx, p, mahjong.AbstractionOptions{}, state)
			if err != nil {
				return err
			}
			_, o, err := analyzeWith(p, abs, "ci")
			if err != nil {
				return err
			}
			perEdit[i] = append(perEdit[i], msSince(t))
			outs[i] = editOutcome{o, out.Used}
			if first {
				// The first op keeps the label form of each warm MOM, a
				// few ms per edit, for the comparison with cold builds.
				warmMOM[i] = momByLabel(abs.MOM)
			}
			state = next
		}
		sessions = append(sessions, outs)
		return nil
	}, func(op int) error {
		root := b.rec.start(op, -1, "op")
		defer root.end(nil)
		prev := tracedBase
		outs := make([]editOutcome, len(s.edits))
		for i, text := range s.edits {
			p, err := b.parse(op, root.ID(), fmt.Sprintf("edit%d.ir", i), text)
			if err != nil {
				return err
			}
			bt, st, err := b.build(op, root.ID(), p, prev, true)
			if err != nil {
				return err
			}
			r, m, err := b.analyze(op, root.ID(), p, "ci", bt.res.MOM)
			if err != nil {
				return err
			}
			used := st != nil && st.Used
			outs[i] = editOutcome{tracedOutcome(bt.res, r, m), used}
			edits++
			if used {
				warm++
			}
			prev = bt
		}
		sessions = append(sessions, outs)
		b.set("edit.warm_ratio", float64(warm)/float64(edits))
		return nil
	})

	// Checks: every op answers like the first, and the first op's warm
	// abstractions equal cold builds of the same edited programs.
	if len(sessions) == 0 {
		return fmt.Errorf("no session completed")
	}
	ref := sessions[0]
	for n, outs := range sessions {
		for i := range ref {
			if outs[i] != ref[i] {
				b.problem("edit-session op %d, edit %d: %+v, first op %+v", n, i, outs[i], ref[i])
				break
			}
		}
	}
	var sum outcome
	for i, text := range s.edits {
		p, err := mahjong.ParseProgram(fmt.Sprintf("cold%d.ir", i), text)
		if err != nil {
			return err
		}
		cold, err := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
		if err != nil {
			return err
		}
		if err := sameMOM(warmMOM[i], momByLabel(cold.MOM)); err != nil {
			b.problem("edit %d (%s): warm MOM (first) against a cold build (second): %v", i, s.descs[i], err)
		}
		_, o, err := analyzeWith(p, cold, "ci")
		if err != nil {
			return err
		}
		if o != ref[i].outcome {
			b.problem("edit %d (%s): warm answer %+v, cold answer %+v", i, s.descs[i], ref[i].outcome, o)
		}
		fmt.Printf("edit %d: %-60s %9.1f ms  warm=%-5v objects=%d→%d cg_edges=%d poly=%d casts=%d\n",
			i, s.descs[i], median(perEdit[i]), ref[i].Warm, o.Objects, o.Merged,
			o.Metrics.CallGraphEdges, o.Metrics.PolyCallSites, o.Metrics.MayFailCasts)
		sum.Merged += o.Merged
		sum.Metrics.CallGraphEdges += o.Metrics.CallGraphEdges
		sum.Metrics.PolyCallSites += o.Metrics.PolyCallSites
		sum.Metrics.MayFailCasts += o.Metrics.MayFailCasts
		sum.Metrics.Reachable += o.Metrics.Reachable
	}
	b.precision(sum)
	return nil
}
