package pta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mahjong/internal/bitset"
	"mahjong/internal/budget"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/trace"
	"mahjong/internal/unionfind"
)

// CSObj is a context-sensitive abstract object: an abstract object plus
// the heap context it was allocated under. CSObjs are interned; their
// IDs index points-to bit sets.
type CSObj struct {
	ID  int
	Ctx *Context
	Obj *Obj
}

func (o *CSObj) String() string {
	if o.Ctx.Depth() == 0 {
		return o.Obj.String()
	}
	return o.Ctx.String() + ":" + o.Obj.String()
}

// Budget bounds an analysis run. Work is a deterministic propagation
// counter (points-to facts processed); Time is an optional wall-clock
// cap. A zero field means unlimited.
type Budget struct {
	Work int64
	Time time.Duration
}

// ErrBudget is reported (wrapped) when a run exceeds its Budget.
var ErrBudget = errors.New("pta: budget exhausted")

// Options configures a points-to analysis run.
type Options struct {
	Heap     HeapModel // defaults to NewAllocSiteModel()
	Selector Selector  // defaults to CI{}
	Budget   Budget

	// Meter, when non-nil, charges resource budgets (propagated facts,
	// live bitset words) as the solve runs; exhausting it aborts the run
	// with an error wrapping budget.ErrExhausted. Unlike Budget.Work —
	// which reproduces the paper's "unscalable" cells as a partial
	// result with Aborted=true — meter exhaustion is a hard failure the
	// caller is expected to degrade from. The same meter is shared
	// across pipeline stages so one job draws on one budget.
	Meter *budget.Meter

	// NoOpt disables the solver's semantics-preserving optimizations
	// (copy-cycle collapsing, class-indexed filter masks, object
	// renumbering, and the parallel engine) and falls back to the naive
	// propagation strategy. Results are identical, only slower; the
	// flag exists for A/B equivalence tests and ablation benchmarks.
	NoOpt bool

	// Parallel selects the sharded parallel propagation engine: 0 or 1
	// runs the sequential solver, n >= 2 runs n propagation workers,
	// and any negative value means one worker per GOMAXPROCS. The
	// engine alternates sequential graph-growth steps (statement
	// processing, edge insertion, cycle collapsing) with parallel
	// propagation phases over a sharded snapshot of the constraint
	// graph; see docs/PARALLEL.md. Results are equivalent to the
	// sequential solver up to object/node numbering. NoOpt forces the
	// sequential path.
	Parallel int

	// Renumber lays out CSObj IDs class-contiguously (class-hierarchy
	// pre-order with one reserved ID block per class) instead of in
	// interning order, densifying points-to bitsets and turning
	// non-interface class filters into [lo,hi) word-range
	// intersections. Semantics-preserving: only IDs change, and every
	// Result accessor reports stable site/label-based views. Ignored
	// under NoOpt.
	Renumber bool

	// parThreshold is the minimum sequential worklist length that
	// triggers a parallel propagation phase; 0 selects the engine
	// default. Package-private: a test knob to force phase churn on
	// small synthetic programs.
	parThreshold int

	// Trace, when enabled, records a "pta.solve" span for the run (with
	// per-pass "pta.collapse" child spans) carrying the Stats counters
	// as span deltas. The zero Ctx disables tracing at no cost.
	Trace trace.Ctx

	// seed, when non-nil, pre-populates the freshly constructed solver
	// before the worklist runs (the incremental warm start installed by
	// SolveIncrementalContext). Package-private on purpose: a seed is
	// only sound if every fact it installs lies below the program's
	// least fixpoint, an invariant the incremental taint closure
	// guarantees and arbitrary callers cannot.
	seed func(*solver) error
}

// nodeKind discriminates pointer nodes.
type nodeKind int8

const (
	nVar nodeKind = iota
	nInstField
	nStaticField
)

// edge is one flow edge out of a node: to is the target node id, filter
// the cast/catch filter as Class.ID+1, or 0 for a filter-free copy edge.
type edge struct {
	to     int32
	filter int32
}

// dupEdgeThreshold is the successor count past which a node switches
// from linear duplicate scanning to a per-list hash index (edgeTab) in
// addEdge.
const dupEdgeThreshold = 8

// node is one pointer in the pointer-flow graph. Nodes are stored by
// value in solver.nodes to avoid a pointer dereference per propagation
// step; take fresh references after any call that may append a node.
type node struct {
	pts  bitset.Set
	succ []edge

	// info is the var-node payload (nil for field nodes). It stays on
	// the node that created it even after the node is collapsed into a
	// cycle representative, so statement processing can keep appending
	// sites through the original id.
	info *varInfo

	// tab, once succ has outgrown dupEdgeThreshold, is 1 + the index of
	// the list's duplicate index in solver.edgeTabs (0: none, scan).
	tab int32

	kind nodeKind
	// merged marks a cycle representative whose collapsed members'
	// varInfos live in solver.merged: a delta arriving here must fire
	// their sites too.
	merged bool
}

// loadSite / storeSite are load/store statements with their non-base
// endpoints pre-resolved to node ids, so reacting to a points-to delta
// costs no map lookups.
type loadSite struct {
	field *lang.Field
	lhs   int
}

type storeSite struct {
	field *lang.Field
	rhs   int
}

// varInfo carries the statements that must react when the points-to set
// of a variable grows: field accesses via the variable and calls
// dispatched on it.
type varInfo struct {
	ctx     *Context
	v       *lang.Var
	loads   []loadSite
	stores  []storeSite
	invokes []invokeSite
}

// invokeSite is a virtual or special call dispatched on the variable,
// with a one-entry memo of its last dispatch: the receiver class and
// its target, and the callee context and csMethod of the call edge that
// dispatch wired. Receivers reaching one site mostly share a class (and,
// under a receiver-independent selector, a callee context), so most
// receivers after the first only need their This binding.
type invokeSite struct {
	inv       *lang.Invoke
	cls       *lang.Class  // receiver class of the memoised dispatch (virtual calls)
	callee    *lang.Method // cls's dispatch target; nil when it has none
	calleeCtx *Context
	cm        int32 // csMethod of the wired edge to (calleeCtx, callee); -1 none
}

// csMethod is one (context, method) pair the solve has touched. Its var
// nodes live in a block of solver.varSlots indexed by Var.Index; next
// chains the pairs of one method (solver.methHead), which is how all
// context variants of a variable are found.
type csMethod struct {
	ctx  *Context
	m    *lang.Method
	base int32 // first slot of the block in solver.varSlots
	n    int32 // block length
	next int32 // next csMethod of the same method, -1 at the end
}

// fieldSlot is one instance-field node of a CSObj; an object's slots
// are kept sorted by field ID.
type fieldSlot struct {
	field int32 // Field.ID
	node  int32
}

// callRec is one context-sensitive call edge: (callerCtx, inv) to the
// callee csMethod.
type callRec struct {
	inv       *lang.Invoke
	callerCtx *Context
	callee    int32 // csMethod index
}

// ciSite is the context-insensitive call graph at one call site.
type ciSite struct {
	inv     *lang.Invoke // nil until the site has a callee
	callees []*lang.Method
}

// castSite records one reachable cast occurrence (per context) for the
// may-fail-casting client.
type castSite struct {
	stmt    *lang.Cast
	rhsNode int
}

// classMask is the class-indexed filter mask of one cast/catch filter
// class: the set of CSObj IDs whose runtime type is a subtype. It is
// extended incrementally as csObj interns new objects, so each object
// pays one SubtypeOf test per distinct filter class instead of one per
// filtered propagation. upTo indexes s.internLog, not the csobjs slice:
// under renumbering, objects intern into reserved slots out of ID
// order, so "which objects are new since last time" is a question about
// the interning log, not about the tail of the ID space.
type classMask struct {
	set  bitset.Set
	upTo int // internLog entries indexed so far
}

// Solver runs the analysis. Create one per run via Solve.
//
// Its hot-path state is keyed by dense integer IDs rather than Go maps:
// contexts, methods, variables (Var.Index), fields, classes, call sites
// and objects all carry one, so lookups are slice indexing or a probe
// of an idTable.
type solver struct {
	prog *lang.Program
	opts Options
	ctxt *ContextTable

	nodes []node

	// Var nodes: one block of varSlots per (context, method), indexed
	// by Var.Index (-1 = node not created yet).
	csMethods []csMethod
	ciCSM     []int32 // Method.ID -> csMethod under the empty context, -1 none
	csmIdx    idTable // (context ID, Method.ID) -> csMethod, non-empty contexts
	methHead  []int32 // Method.ID -> newest csMethod of the method, -1 none
	varSlots  []int32

	objFields   [][]fieldSlot // CSObj ID -> its field nodes, sorted by field ID
	staticNodes []int32       // Field.ID -> static field node, -1 none

	// csobjs maps CSObj ID -> object. Without renumbering it is dense
	// (IDs are interning order); with renumbering it may carry nil
	// holes for reserved-but-never-interned slots, so iterate via
	// internLog or points-to bits, never by scanning the slice.
	csobjs []*CSObj
	ciObjs []int32 // Obj.ID -> CSObj under the empty heap context, -1 none
	objIdx idTable // (heap context ID, Obj.ID) -> CSObj, non-empty contexts
	// internLog records CSObj IDs in interning order — the solver's
	// own discovery order, which renumbering divorces from ID order.
	// Mask extension and equivalence tests iterate it.
	internLog []int32
	numCSObjs int // interned objects (== non-nil csobjs entries)
	tailObjs  int // objects past the reserved region; >0 disables range filters

	ren *renumbering // nil unless Options.Renumber is in effect
	par *parEngine   // nil unless Options.Parallel selects >= 2 workers

	reach     []bitset.Set // context ID -> reachable Method.IDs
	reachList []int32      // reachable csMethods, in reach order
	ciReach   bitset.Set   // Method.IDs reachable under some context

	callSeen   idTable   // (caller context ID, Invoke.ID) x callee csMethod+1
	calls      []callRec // every context-sensitive call edge, discovery order
	ciSites    []ciSite  // Invoke.ID -> context-insensitive callees
	ciEdges    int       // distinct (call site, callee) pairs
	dispatched idTable   // (declared callee ID, receiver Class.ID) -> Method.ID, -1 none

	casts      []castSite
	emptyHeap  *Context
	work       int64
	deadline   time.Time
	hasTimeout bool
	ctx        context.Context // nil when cancellation is not requested
	meter      *budget.Meter   // nil when no resource budget is set
	meterErr   error           // the exhaustion error behind errMeterSentinel

	worklist intRing
	queued   []bool        //lint:owner-writes sharded by the class-contiguous renumbering during parallel phases
	pending  []*bitset.Set //lint:owner-writes each worker writes only its shard's entries mid-phase
	freeSets []*bitset.Set // cleared delta sets, reused by grabSet

	// edgeTabs holds the duplicate indexes of successor lists past
	// dupEdgeThreshold (see node.tab).
	edgeTabs []edgeTab

	// copy-cycle collapsing state (nil/zero under Options.NoOpt)
	reps         *unionfind.Forest    // nil until the first collapse
	merged       map[int32][]*varInfo // representative -> collapsed members' varInfos
	newCopyEdges int                  // copy edges since the last SCC pass
	sccTrigger   int                  // pass when newCopyEdges reaches this
	sccIdle      int                  // consecutive passes that collapsed nothing

	masks   []*classMask // Class.ID -> filter mask, nil until first used
	scratch bitset.Set   // filtered() output buffer, consumed immediately

	stats Stats
	span  trace.Span // the run's "pta.solve" span; zero when untraced
}

// Result is the outcome of a points-to analysis run.
type Result struct {
	Prog     *lang.Program
	Opts     Options
	Aborted  bool  // true when the budget ran out (partial result)
	Work     int64 // propagation work performed
	Duration time.Duration

	solver *solver
}

// Solve runs the points-to analysis on prog with the given options.
// A budget overrun returns a partial Result with Aborted=true and a nil
// error; hard misconfigurations return an error.
func Solve(prog *lang.Program, opts Options) (*Result, error) {
	return SolveContext(context.Background(), prog, opts) //lint:allow ctxflow Solve is the documented context-free compat shim over SolveContext
}

// SolveContext is Solve with cancellation: the worklist loop checks ctx
// alongside the Budget, and a cancelled or timed-out context aborts the
// run with an error wrapping context.Canceled or
// context.DeadlineExceeded. Budget overruns keep Solve's semantics
// (partial Result, Aborted=true, nil error).
func SolveContext(ctx context.Context, prog *lang.Program, opts Options) (res *Result, err error) {
	// The span-closing defer is registered before the stage guard so it
	// runs after Recover has converted any panic into the named error:
	// the span closes tagged with the failure the caller will see.
	sp := opts.Trace.Start(faultinject.StageSolve)
	defer func() {
		if err == nil && res != nil && res.Aborted {
			sp.FailTag(trace.FailBudget, "work budget exhausted (partial result)")
			return
		}
		sp.Close(err)
	}()
	// Panic isolation: a bug (or injected fault) escaping the solve
	// surfaces as a typed *failure.InternalError instead of unwinding
	// the caller — in mahjongd, failing one job instead of the daemon.
	// The run loop's budget/cancel sentinels are recovered earlier, in
	// run(); only genuine panics reach this guard.
	defer failure.Recover(faultinject.StageSolve, &err)
	if prog.Entry == nil {
		return nil, errors.New("pta: program has no entry method")
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-context normalization at the API boundary, not a detached root
	}
	// The injection seam precedes the deadline check so a hook-injected
	// slow stage is observed by the job's context like any real stall.
	if err := faultinject.Fire(faultinject.StageSolve); err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pta: analysis not started: %w", err)
	}
	if opts.Heap == nil {
		opts.Heap = NewAllocSiteModel()
	}
	if opts.Selector == nil {
		opts.Selector = CI{}
	}
	s := newSolver(prog, opts)
	s.span = sp
	// Poll the context only when it can actually fire. A nil Done channel
	// means the context can never be cancelled and carries no deadline —
	// context.Background(), or any value-only child of it. The previous
	// identity comparison (ctx != context.Background()) misclassified
	// semantically-background contexts like context.WithValue(Background,…)
	// and panics outright on uncomparable Context implementations.
	if ctx.Done() != nil {
		s.ctx = ctx
	}
	s.meter = opts.Meter
	if opts.Renumber && !opts.NoOpt {
		// The renumbering layout must exist before any object interns —
		// including warm-seeded ones — so it runs ahead of opts.seed.
		rsp := sp.Ctx().Start(faultinject.StageRenumber)
		defer rsp.CloseAborted() // no-op on the normal path; closes the span if the seam panics
		if err := faultinject.Fire(faultinject.StageRenumber); err != nil {
			rsp.Close(err)
			return nil, fmt.Errorf("pta: renumbering failed: %w", err)
		}
		s.ren = buildRenumbering(prog, opts.Heap)
		s.csobjs = make([]*CSObj, s.ren.reserved)
		s.objFields = make([][]fieldSlot, s.ren.reserved)
		rsp.Add("reserved_slots", int64(s.ren.reserved))
		rsp.Add("span_classes", int64(len(s.ren.spans)))
		rsp.End()
	}
	if workers := normalizeWorkers(opts.Parallel); workers >= 2 && !opts.NoOpt {
		s.par = newParEngine(s, workers, opts.parThreshold)
	}
	start := time.Now()
	if opts.Budget.Time > 0 {
		s.deadline = start.Add(opts.Budget.Time)
		s.hasTimeout = true
	}
	if opts.seed != nil {
		// Warm-start seeding: install retained facts below the fixpoint
		// with no worklist entries, so the run converges by constraint
		// replay instead of propagation cascades. Seed errors (resource
		// exhaustion, cancellation) abort before any solving happened.
		if err := opts.seed(s); err != nil {
			return nil, fmt.Errorf("pta: seeding failed: %w", err)
		}
	}
	aborted, cancelled, exhausted := s.run()
	s.recordSpan(sp)
	if cancelled {
		return nil, fmt.Errorf("pta: analysis interrupted after %d work units: %w", s.work, ctx.Err())
	}
	if exhausted {
		return nil, fmt.Errorf("pta: analysis stopped after %d work units: %w", s.work, s.meterErr)
	}
	return &Result{
		Prog:     prog,
		Opts:     opts,
		Aborted:  aborted,
		Work:     s.work,
		Duration: time.Since(start),
		solver:   s,
	}, nil
}

// newSolver builds an empty solver for prog. Its tables are pre-sized
// from program shape: the statement count approximates the node count
// of a context-insensitive solve, and a context-sensitive one grows
// geometrically from there.
func newSolver(prog *lang.Program, opts Options) *solver {
	st := prog.Stats()
	s := &solver{
		prog:        prog,
		opts:        opts,
		ctxt:        NewContextTable(),
		nodes:       make([]node, 0, st.Stmts),
		queued:      make([]bool, 0, st.Stmts),
		pending:     make([]*bitset.Set, 0, st.Stmts),
		csMethods:   make([]csMethod, 0, st.Methods),
		ciCSM:       filled(len(prog.Methods)),
		csmIdx:      newIDTable(0, true),
		methHead:    filled(len(prog.Methods)),
		varSlots:    make([]int32, 0, st.Stmts),
		objFields:   make([][]fieldSlot, 0, st.AllocSites),
		staticNodes: filled(len(prog.Fields)),
		csobjs:      make([]*CSObj, 0, st.AllocSites),
		ciObjs:      filled(st.AllocSites),
		objIdx:      newIDTable(0, true),
		internLog:   make([]int32, 0, st.AllocSites),
		reach:       make([]bitset.Set, 1),
		callSeen:    newIDTable(st.CallSites, false),
		ciSites:     make([]ciSite, st.CallSites),
		dispatched:  newIDTable(st.CallSites, true),
		masks:       make([]*classMask, len(prog.Classes)),
		sccTrigger:  sccMinTrigger,
	}
	s.emptyHeap = s.ctxt.Empty()
	return s
}

// filled returns a slice of n entries set to -1 (the "none" marker of
// the solver's ID-indexed tables).
func filled(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// recordSpan mirrors the run's Stats onto the solve span so the
// span-accounting tests can cross-check trace counters against
// Result.Stats and Report.Solver. Called on every non-panicking exit
// from run(), including budget/cancel aborts where the partial counters
// are still meaningful.
func (s *solver) recordSpan(sp trace.Span) {
	st := s.stats
	sp.Add("nodes", int64(len(s.nodes)))
	sp.Add("edges", int64(st.Edges))
	sp.Add("copy_edges", int64(st.CopyEdges))
	sp.Add("collapsed_sccs", int64(st.CollapsedSCCs))
	sp.Add("collapsed_nodes", int64(st.CollapsedNodes))
	sp.Add("scc_passes", int64(st.SCCPasses))
	sp.Add("propagated_bits", st.PropagatedBits)
	sp.Add("filter_masks", int64(st.FilterMasks))
	sp.Add("filter_mask_hits", st.FilterMaskHits)
	sp.Add("worklist_peak", int64(s.worklist.peak))
	sp.Add("work", s.work)
	if s.ren != nil {
		sp.Add("range_filter_hits", st.RangeFilterHits)
		sp.Add("tail_objects", int64(s.tailObjs))
	}
	if s.par != nil {
		sp.Add("shard_workers", int64(st.ShardWorkers))
		sp.Add("shard_phases", int64(st.ShardPhases))
		sp.Add("cross_shard_deltas", st.CrossShardDeltas)
		sp.Add("termination_epochs", int64(st.TerminationEpochs))
	}
}

// run executes the worklist loop; aborted reports a legacy work-budget
// overrun, cancelled a context cancellation, exhausted a resource-meter
// overrun (the error itself is in s.meterErr).
func (s *solver) run() (aborted, cancelled, exhausted bool) {
	defer func() {
		// chargeWork/chargeWords unwind deep processing chains via panic
		// when a budget runs out or the context is cancelled — including
		// mid-collapse, while a Tarjan pass is active; anything else is a
		// real bug and is re-raised (to be typed by SolveContext's stage
		// guard).
		switch r := recover(); r {
		case nil:
		case errBudgetSentinel:
			aborted = true
		case errCancelSentinel:
			cancelled = true
		case errMeterSentinel:
			exhausted = true
		default:
			panic(r)
		}
	}()
	s.makeReachable(s.ctxt.Empty(), s.prog.Entry)
	for {
		if !s.opts.NoOpt && s.newCopyEdges >= s.sccTrigger {
			s.collapseCycles()
		}
		if s.par != nil && s.worklist.len() >= s.par.threshold {
			// Enough independent propagation queued up to amortize a
			// parallel phase: freeze the graph, fan the worklist out to
			// the shard workers, then fold the deferred graph-growth work
			// (var-site firing) back into this sequential loop.
			s.par.runPhase()
			continue
		}
		id, ok := s.worklist.pop()
		if !ok {
			break
		}
		s.queued[id] = false
		delta := s.pending[id]
		s.pending[id] = nil
		if rep := s.find(id); rep != id {
			// Collapsed while queued: its delta (if any) belongs to the
			// representative now.
			if delta != nil {
				s.addPts(rep, delta)
				s.releaseSet(delta)
			}
			continue
		}
		if delta == nil || delta.IsEmpty() {
			s.releaseSet(delta)
			continue
		}
		s.chargeWork(int64(delta.Len()))
		s.stats.PropagatedBits += int64(delta.Len())
		// Do not hold a *node across the calls below: processing may
		// append to s.nodes and invalidate interior pointers. Edges
		// appended to succ mid-loop are fine to miss — addEdge replays
		// the full points-to set (delta included) across new edges.
		succ := s.nodes[id].succ
		for _, e := range succ {
			s.addPts(int(e.to), s.filtered(delta, e.filter))
		}
		if info := s.nodes[id].info; info != nil {
			s.processVarDelta(info, delta)
		}
		for _, vi := range s.mergedInfos(id) {
			s.processVarDelta(vi, delta)
		}
		s.releaseSet(delta)
	}
	return false, false, false
}

var (
	errBudgetSentinel = new(int)
	errCancelSentinel = new(int)
	errMeterSentinel  = new(int)
)

func (s *solver) chargeWork(units int64) {
	s.work += units
	if s.opts.Budget.Work > 0 && s.work > s.opts.Budget.Work {
		panic(errBudgetSentinel)
	}
	if err := s.meter.AddFacts(units); err != nil {
		s.meterErr = err
		panic(errMeterSentinel)
	}
	if s.work%4096 < units { // periodic checks, amortized over ~4096 units
		if s.hasTimeout && time.Now().After(s.deadline) {
			panic(errBudgetSentinel)
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			panic(errCancelSentinel)
		}
	}
}

// chargeWords meters growth (or, negative, shrinkage) of live
// points-to-set storage. Like chargeWork it unwinds via sentinel, so
// exhaustion aborts cleanly from any depth — including mid-collapse.
func (s *solver) chargeWords(words int) {
	if s.meter == nil || words == 0 {
		return
	}
	if err := s.meter.AddWords(int64(words)); err != nil {
		s.meterErr = err
		panic(errMeterSentinel)
	}
}

// pollInterrupt is the no-work-charged variant of chargeWork's periodic
// checks, called from the collapse pass (which performs graph work that
// the deterministic fact counter deliberately excludes).
func (s *solver) pollInterrupt() {
	if s.hasTimeout && time.Now().After(s.deadline) {
		panic(errBudgetSentinel)
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		panic(errCancelSentinel)
	}
}

// find resolves a node id to its cycle representative; the identity
// until the first collapse (and always under NoOpt).
//
//lint:phase-sequential path-compresses parent links; the engine flattens the forest pre-phase so workers never need it
func (s *solver) find(id int) int {
	if s.reps == nil || id >= s.reps.Len() {
		return id
	}
	return s.reps.Find(id)
}

// ptsAt returns the points-to set of id's representative. The pointer
// is only valid until the next node append or collapse.
func (s *solver) ptsAt(id int) *bitset.Set {
	return &s.nodes[s.find(id)].pts
}

// grabSet returns an empty delta set, reusing a released one if
// available (the steady state allocates nothing).
func (s *solver) grabSet() *bitset.Set {
	if n := len(s.freeSets); n > 0 {
		p := s.freeSets[n-1]
		s.freeSets = s.freeSets[:n-1]
		return p
	}
	return &bitset.Set{}
}

func (s *solver) releaseSet(p *bitset.Set) {
	if p == nil {
		return
	}
	p.Clear()
	s.freeSets = append(s.freeSets, p)
}

// filterClass returns the class of an edge filter (Class.ID+1).
func (s *solver) filterClass(filter int32) *lang.Class { return s.prog.Classes[filter-1] }

// mask returns filter's class-indexed object mask, extending it over
// any CSObjs interned since the last use.
//
//lint:phase-sequential lazily extends the mask table; prep warms every mask so workers only ever read them
func (s *solver) mask(filter int32) *bitset.Set {
	m := s.masks[filter-1]
	if m == nil {
		m = &classMask{}
		s.masks[filter-1] = m
		s.stats.FilterMasks++
	}
	if m.upTo < len(s.internLog) {
		cls := s.filterClass(filter)
		for _, id := range s.internLog[m.upTo:] {
			if s.csobjs[id].Obj.Type.SubtypeOf(cls) {
				m.set.Add(int(id))
			}
		}
		m.upTo = len(s.internLog)
	}
	return &m.set
}

// filtered returns delta restricted to objects whose type is a subtype
// of filter; a zero filter returns delta unchanged. The result may alias
// the solver's scratch buffer and must be consumed before the next
// filtered call.
func (s *solver) filtered(delta *bitset.Set, filter int32) *bitset.Set {
	if filter == 0 {
		return delta //lint:allow bitsetalias documented borrow passthrough: the result aliases an input the caller already borrows and must be consumed before the next filtered call
	}
	if s.opts.NoOpt {
		cls := s.filterClass(filter)
		out := bitset.New(0)
		delta.ForEach(func(i int) bool {
			if s.csobjs[i].Obj.Type.SubtypeOf(cls) {
				out.Add(i)
			}
			return true
		})
		return out
	}
	if s.ren != nil && s.tailObjs == 0 {
		if sp, ok := s.ren.span(s.filterClass(filter)); ok {
			// Renumbering invariant: every subtype of a non-interface,
			// non-array filter lives in one reserved ID interval, so the
			// filter is a word-range intersection — and when the whole
			// delta already lies inside the range, no copy at all.
			s.stats.RangeFilterHits++
			if delta.OnesInRange(sp.lo, sp.hi) == delta.Len() {
				return delta //lint:allow bitsetalias documented borrow passthrough: the delta lies entirely inside the filter's ID range, so the filtered set IS the input
			}
			return bitset.IntersectRangeInto(&s.scratch, delta, sp.lo, sp.hi)
		}
	}
	s.stats.FilterMaskHits++
	return bitset.IntersectInto(&s.scratch, delta, s.mask(filter))
}

func (s *solver) newNode(kind nodeKind, info *varInfo) int {
	id := len(s.nodes)
	s.nodes = append(s.nodes, node{kind: kind, info: info})
	s.queued = append(s.queued, false)
	s.pending = append(s.pending, nil)
	return id
}

// csMethodOf returns the (ctx, m) pair's csMethod, creating it (with an
// empty var block) on first use.
func (s *solver) csMethodOf(ctx *Context, m *lang.Method) int {
	if ctx == s.emptyHeap {
		for m.ID >= len(s.ciCSM) {
			s.ciCSM = append(s.ciCSM, -1)
		}
		if cm := s.ciCSM[m.ID]; cm >= 0 {
			return int(cm)
		}
		cm := s.newCSMethod(ctx, m)
		s.ciCSM[m.ID] = int32(cm)
		return cm
	}
	key := pack2(int(ctx.id), m.ID)
	if cm, ok := s.csmIdx.get(key, 1); ok {
		return int(cm)
	}
	cm := s.newCSMethod(ctx, m)
	s.csmIdx.insert(key, 1, int32(cm))
	return cm
}

// lookupCSMethod is csMethodOf without creation; -1 when absent.
func (s *solver) lookupCSMethod(ctx *Context, m *lang.Method) int {
	if ctx == s.emptyHeap {
		if m.ID < len(s.ciCSM) {
			return int(s.ciCSM[m.ID])
		}
		return -1
	}
	if cm, ok := s.csmIdx.get(pack2(int(ctx.id), m.ID), 1); ok {
		return int(cm)
	}
	return -1
}

func (s *solver) newCSMethod(ctx *Context, m *lang.Method) int {
	for m.ID >= len(s.methHead) {
		s.methHead = append(s.methHead, -1)
	}
	cm := len(s.csMethods)
	s.csMethods = append(s.csMethods, csMethod{ctx: ctx, m: m, next: s.methHead[m.ID]})
	s.methHead[m.ID] = int32(cm)
	s.allocVarBlock(cm)
	return cm
}

// allocVarBlock gives csMethod cm a fresh block covering every current
// local of its method, copying the old block's slots. A method without
// an exception variable gets one spare slot: the solver itself creates
// $exc lazily (lang.Method.ExcVar) when the method first takes part in
// a call edge, and the spare keeps that from relocating the block.
func (s *solver) allocVarBlock(cm int) {
	c := &s.csMethods[cm]
	n := len(c.m.Locals)
	if !c.m.IsAbstract && !c.m.HasExcVar() {
		n++
	}
	base := len(s.varSlots)
	for i := 0; i < n; i++ {
		s.varSlots = append(s.varSlots, -1)
	}
	copy(s.varSlots[base:], s.varSlots[c.base:c.base+c.n])
	c.base, c.n = int32(base), int32(n)
}

// varSlot returns the node of variable v of csMethod cm, creating it on
// first use.
func (s *solver) varSlot(cm int, v *lang.Var) int {
	if v.Index >= int(s.csMethods[cm].n) {
		s.allocVarBlock(cm)
	}
	c := &s.csMethods[cm]
	i := int(c.base) + v.Index
	if id := s.varSlots[i]; id >= 0 {
		return int(id)
	}
	id := s.newNode(nVar, &varInfo{ctx: c.ctx, v: v})
	s.varSlots[i] = int32(id)
	return id
}

func (s *solver) varNode(ctx *Context, v *lang.Var) int {
	return s.varSlot(s.csMethodOf(ctx, v.Method), v)
}

// lookupVar returns v's node under ctx without creating it; -1 when the
// solve never touched it.
func (s *solver) lookupVar(ctx *Context, v *lang.Var) int {
	cm := s.lookupCSMethod(ctx, v.Method)
	if cm < 0 {
		return -1
	}
	c := &s.csMethods[cm]
	if v.Index >= int(c.n) {
		return -1
	}
	return int(s.varSlots[int(c.base)+v.Index])
}

// forEachVarNode calls fn with every node of v, one per context the
// solve analyzed v's method under.
func (s *solver) forEachVarNode(v *lang.Var, fn func(id int)) {
	m := v.Method
	if m == nil || m.ID >= len(s.methHead) {
		return
	}
	for cm := s.methHead[m.ID]; cm >= 0; cm = s.csMethods[cm].next {
		c := &s.csMethods[cm]
		if c.m != m || v.Index >= int(c.n) {
			continue
		}
		if id := s.varSlots[int(c.base)+v.Index]; id >= 0 {
			fn(int(id))
		}
	}
}

// fieldNode returns the node of CSObj obj's field f, creating it on
// first use. An object's slots stay sorted by field ID, so lookup is a
// binary search over the few fields the solve ever touched on it.
func (s *solver) fieldNode(obj int, f *lang.Field) int {
	fs := s.objFields[obj]
	i, ok := searchField(fs, int32(f.ID))
	if ok {
		return int(fs[i].node)
	}
	id := s.newNode(nInstField, nil)
	s.objFields[obj] = slices.Insert(fs, i, fieldSlot{field: int32(f.ID), node: int32(id)})
	return id
}

// lookupField is fieldNode without creation; -1 when absent.
func (s *solver) lookupField(obj int, f *lang.Field) int {
	fs := s.objFields[obj]
	if i, ok := searchField(fs, int32(f.ID)); ok {
		return int(fs[i].node)
	}
	return -1
}

// searchField returns the position of field fid in fs (sorted by
// field), or where it would be inserted.
func searchField(fs []fieldSlot, fid int32) (int, bool) {
	lo, hi := 0, len(fs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fs[m].field < fid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(fs) && fs[lo].field == fid
}

func (s *solver) staticNode(f *lang.Field) int {
	for f.ID >= len(s.staticNodes) {
		s.staticNodes = append(s.staticNodes, -1)
	}
	if id := s.staticNodes[f.ID]; id >= 0 {
		return int(id)
	}
	id := s.newNode(nStaticField, nil)
	s.staticNodes[f.ID] = int32(id)
	return id
}

// csObj interns the (heap context, object) pair. Under renumbering a
// context-insensitive object takes the next free slot of its class's
// reserved ID block; context-sensitive objects (and block overflow from
// a foreign heap model) take dynamic tail IDs past the reserved region,
// which disables the range-filter fast path but never affects
// correctness.
func (s *solver) csObj(ctx *Context, o *Obj) int {
	if ctx == s.emptyHeap {
		for o.ID >= len(s.ciObjs) {
			s.ciObjs = append(s.ciObjs, -1)
		}
		if id := s.ciObjs[o.ID]; id >= 0 {
			return int(id)
		}
	} else if id, ok := s.objIdx.get(pack2(int(ctx.id), o.ID), 1); ok {
		return int(id)
	}
	id := -1
	if s.ren != nil {
		if ctx == s.emptyHeap {
			if blk := s.ren.blocks[o.Type]; blk != nil && blk.next < blk.hi {
				id = blk.next
				blk.next++
			}
		}
		if id < 0 {
			id = len(s.csobjs)
			s.csobjs = append(s.csobjs, nil)
			s.objFields = append(s.objFields, nil)
			s.tailObjs++
		}
		s.csobjs[id] = &CSObj{ID: id, Ctx: ctx, Obj: o}
	} else {
		id = len(s.csobjs)
		s.csobjs = append(s.csobjs, &CSObj{ID: id, Ctx: ctx, Obj: o})
		s.objFields = append(s.objFields, nil)
	}
	s.numCSObjs++
	s.internLog = append(s.internLog, int32(id))
	if ctx == s.emptyHeap {
		s.ciObjs[o.ID] = int32(id)
	} else {
		s.objIdx.insert(pack2(int(ctx.id), o.ID), 1, int32(id))
	}
	return id
}

// lookupCSObj is csObj without interning; -1 when absent.
func (s *solver) lookupCSObj(ctx *Context, o *Obj) int {
	if ctx == s.emptyHeap {
		if o.ID < len(s.ciObjs) {
			return int(s.ciObjs[o.ID])
		}
		return -1
	}
	if id, ok := s.objIdx.get(pack2(int(ctx.id), o.ID), 1); ok {
		return int(id)
	}
	return -1
}

// addPts merges set into node id's points-to set, queueing the newly
// added part for propagation. set is only read, never retained.
//
//lint:phase-sequential calls find and the global worklist; workers use localAddPts on owned shards instead
func (s *solver) addPts(id int, set *bitset.Set) {
	if set == nil || set.IsEmpty() {
		return
	}
	id = s.find(id)
	p := s.pending[id]
	fresh := p == nil
	if fresh {
		p = s.grabSet()
	}
	wordsBefore := s.nodes[id].pts.Words()
	if s.nodes[id].pts.UnionInto(set, p) == 0 {
		if fresh {
			s.releaseSet(p)
		}
		return
	}
	if fresh {
		s.pending[id] = p
	}
	s.queue(id)
	s.chargeWords(s.nodes[id].pts.Words() - wordsBefore)
}

// addPtsOne adds a single object without building a one-bit set.
//
//lint:phase-sequential see addPts
func (s *solver) addPtsOne(id, obj int) {
	id = s.find(id)
	wordsBefore := s.nodes[id].pts.Words()
	if !s.nodes[id].pts.Add(obj) {
		return
	}
	s.chargeWords(s.nodes[id].pts.Words() - wordsBefore)
	p := s.pending[id]
	if p == nil {
		p = s.grabSet()
		s.pending[id] = p
	}
	p.Add(obj)
	s.queue(id)
}

//lint:phase-sequential pushes onto the coordinator's global worklist; workers queue onto their private rings instead
func (s *solver) queue(id int) {
	if !s.queued[id] {
		s.queued[id] = true
		s.worklist.push(id)
	}
}

// addEdge inserts a flow edge and replays the source's current
// points-to set across it. filter is the cast/catch filter class, nil
// for a copy edge.
func (s *solver) addEdge(from, to int, filter *lang.Class) {
	s.addEdgeIf(from, to, classFilter(filter), true)
}

// classFilter encodes a filter class as an edge filter (Class.ID+1).
func classFilter(c *lang.Class) int32 {
	if c == nil {
		return 0
	}
	return int32(c.ID) + 1
}

// addEdgeIf is addEdge with the replay made optional. The warm seeder
// passes replay=false for edges whose target's set was installed from
// the base fixpoint and already contains everything the source would
// push — skipping those full-set unions is most of the seeding win.
//
// Duplicate edges are suppressed by a linear scan while the successor
// list is short, and by one probe of the list's edgeTab once it has
// outgrown dupEdgeThreshold; no per-node map is ever allocated.
func (s *solver) addEdgeIf(from, to int, filter int32, replay bool) {
	from, to = s.find(from), s.find(to)
	if from == to && filter == 0 {
		return
	}
	n := &s.nodes[from]
	e := edge{to: int32(to), filter: filter}
	if n.tab == 0 {
		for _, old := range n.succ {
			if old == e {
				return
			}
		}
		if len(n.succ) >= dupEdgeThreshold {
			s.edgeTabs = append(s.edgeTabs, newEdgeTab(n.succ))
			n.tab = int32(len(s.edgeTabs))
		}
	}
	if n.tab != 0 {
		t := s.edgeTabs[n.tab-1]
		if 2*(len(n.succ)+1) > len(t) {
			t = newEdgeTab(n.succ)
			s.edgeTabs[n.tab-1] = t
		}
		slot, dup := t.lookup(n.succ, e)
		if dup {
			return
		}
		t[slot] = int32(len(n.succ)) + 1
	}
	n.succ = append(n.succ, e)
	s.stats.Edges++
	if filter == 0 {
		s.stats.CopyEdges++
		s.newCopyEdges++
	} else if s.par != nil {
		// The parallel engine pre-extends every filter's mask before a
		// phase (workers read masks but never build them), so each
		// distinct filter class must be on record the moment its first
		// edge exists.
		s.par.trackFilter(filter)
	}
	if replay && !n.pts.IsEmpty() {
		s.addPts(to, s.filtered(&n.pts, filter))
	}
}

// isReachable reports whether (ctx, m) was marked reachable.
func (s *solver) isReachable(ctx *Context, m *lang.Method) bool {
	return int(ctx.id) < len(s.reach) && s.reach[ctx.id].Contains(m.ID)
}

// markReachable records (ctx, m) as reachable; it reports false when it
// already was.
func (s *solver) markReachable(ctx *Context, m *lang.Method, cm int) bool {
	if s.isReachable(ctx, m) {
		return false
	}
	if m.IsAbstract {
		panic(fmt.Sprintf("pta: abstract method %s became reachable", m))
	}
	for int(ctx.id) >= len(s.reach) {
		s.reach = append(s.reach, bitset.Set{})
	}
	s.reach[ctx.id].Add(m.ID)
	s.reachList = append(s.reachList, int32(cm))
	s.ciReach.Add(m.ID)
	s.chargeWork(1)
	return true
}

// makeReachable marks (ctx, m) reachable and processes its body once;
// it returns the pair's csMethod.
func (s *solver) makeReachable(ctx *Context, m *lang.Method) int {
	cm := s.csMethodOf(ctx, m)
	if !s.markReachable(ctx, m, cm) {
		return cm
	}
	for _, st := range m.Stmts {
		s.processStmt(ctx, m, st)
	}
	return cm
}

func (s *solver) processStmt(ctx *Context, m *lang.Method, st lang.Stmt) {
	switch stmt := st.(type) {
	case *lang.Alloc:
		obj := s.opts.Heap.Obj(stmt.Site)
		var hctx *Context
		if obj.CtxInsensitive {
			hctx = s.emptyHeap
		} else {
			hctx = s.opts.Selector.HeapContext(s.ctxt, ctx, obj)
		}
		cs := s.csObj(hctx, obj)
		s.addPtsOne(s.varNode(ctx, stmt.LHS), cs)

	case *lang.Copy:
		s.addEdge(s.varNode(ctx, stmt.RHS), s.varNode(ctx, stmt.LHS), nil)

	case *lang.Cast:
		rhs := s.varNode(ctx, stmt.RHS)
		s.addEdge(rhs, s.varNode(ctx, stmt.LHS), stmt.Type)
		// A (ctx, method) body is processed once, so each cast
		// occurrence is recorded once.
		s.casts = append(s.casts, castSite{stmt: stmt, rhsNode: rhs})

	case *lang.Load:
		base := s.varNode(ctx, stmt.Base)
		ls := loadSite{field: stmt.Field, lhs: s.varNode(ctx, stmt.LHS)}
		info := s.nodes[base].info
		info.loads = append(info.loads, ls)
		s.replayBase(base, func(obj int) { s.applyLoad(obj, ls) })

	case *lang.Store:
		base := s.varNode(ctx, stmt.Base)
		ss := storeSite{field: stmt.Field, rhs: s.varNode(ctx, stmt.RHS)}
		info := s.nodes[base].info
		info.stores = append(info.stores, ss)
		s.replayBase(base, func(obj int) { s.applyStore(obj, ss) })

	case *lang.StaticLoad:
		s.addEdge(s.staticNode(stmt.Field), s.varNode(ctx, stmt.LHS), nil)

	case *lang.StaticStore:
		s.addEdge(s.varNode(ctx, stmt.RHS), s.staticNode(stmt.Field), nil)

	case *lang.Invoke:
		switch stmt.Kind {
		case lang.StaticCall:
			calleeCtx := s.opts.Selector.CalleeContext(s.ctxt, ctx, stmt, stmt.Callee, nil)
			s.addCallEdge(ctx, stmt, calleeCtx, stmt.Callee, -1)
		default: // virtual and special calls dispatch/bind per receiver object
			base := s.varNode(ctx, stmt.Base)
			info := s.nodes[base].info
			info.invokes = append(info.invokes, invokeSite{inv: stmt, cm: -1})
			k := len(info.invokes) - 1
			s.replayBase(base, func(obj int) { s.applyInvoke(info, k, obj) })
		}

	case *lang.Return:
		if stmt.Value != nil && m.RetVar != nil {
			s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.RetVar), nil)
		}

	case *lang.Throw:
		s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.ExcVar()), nil)

	case *lang.Catch:
		s.addEdge(s.varNode(ctx, m.ExcVar()), s.varNode(ctx, stmt.LHS), stmt.Type)

	default:
		panic(fmt.Sprintf("pta: unknown statement %T", st))
	}
}

// replayBase applies fn to every object already in base's points-to
// set; future objects are handled by processVarDelta. It iterates a
// snapshot: callbacks may grow the live set through addPts (e.g. the
// self-load `x = x.f`), and bits added mid-replay reach fn later via
// the pending delta instead of a mutating iteration.
func (s *solver) replayBase(base int, fn func(obj int)) {
	pts := s.ptsAt(base)
	if pts.IsEmpty() {
		return
	}
	snap := pts.Clone()
	snap.ForEach(func(i int) bool {
		fn(i)
		return true
	})
}

// processVarDelta reacts to growth of a variable's points-to set.
func (s *solver) processVarDelta(info *varInfo, delta *bitset.Set) {
	delta.ForEach(func(obj int) bool {
		for _, ld := range info.loads {
			s.applyLoad(obj, ld)
		}
		for _, st := range info.stores {
			s.applyStore(obj, st)
		}
		for k := range info.invokes {
			s.applyInvoke(info, k, obj)
		}
		return true
	})
}

// mergedInfos returns the varInfos of the members collapsed into node
// id (nil unless id is a cycle representative).
func (s *solver) mergedInfos(id int) []*varInfo {
	if !s.nodes[id].merged {
		return nil
	}
	return s.merged[int32(id)]
}

func (s *solver) applyLoad(obj int, ld loadSite) {
	s.addEdge(s.fieldNode(obj, ld.field), ld.lhs, nil)
}

func (s *solver) applyStore(obj int, st storeSite) {
	s.addEdge(st.rhs, s.fieldNode(obj, st.field), nil)
}

// dispatch resolves a virtual call whose declared callee is decl on a
// receiver of runtime class cls, or nil when cls has no implementation.
// Results are memoised per (declared callee, class): many call sites
// share one declaration, and the propagation loop then never hashes a
// signature string.
func (s *solver) dispatch(decl *lang.Method, cls *lang.Class) *lang.Method {
	key := pack2(decl.ID, cls.ID)
	if id, ok := s.dispatched.get(key, 1); ok {
		if id < 0 {
			return nil
		}
		return s.prog.Methods[id]
	}
	m := cls.Dispatch(decl.Sig())
	id := int32(-1)
	if m != nil {
		id = int32(m.ID)
	}
	s.dispatched.insert(key, 1, id)
	return m
}

// applyInvoke dispatches invoke site k of info on receiver object obj
// and wires the call edge. There is deliberately no (ctx, inv, obj)
// seen-cache in front of it: deltas are disjoint from previously
// propagated bits, so a pair can repeat only through a statement replay
// overlapping a pending delta or a post-collapse re-propagation — both
// bounded — and addCallEdge deduplicates the edge itself. The site's
// memo only skips work whose outcome is already known.
func (s *solver) applyInvoke(info *varInfo, k int, obj int) {
	site := &info.invokes[k]
	inv := site.inv
	recv := s.csobjs[obj]
	callee := inv.Callee
	if inv.Kind != lang.SpecialCall {
		if cls := recv.Obj.Type; site.cls != cls {
			site.cls, site.callee, site.cm = cls, s.dispatch(inv.Callee, cls), -1
		}
		callee = site.callee
		if callee == nil {
			// No implementation for this runtime type (e.g. an object of an
			// unrelated type flowed here imprecisely); skip, as a JVM would
			// never reach this state.
			return
		}
	}
	calleeCtx := s.opts.Selector.CalleeContext(s.ctxt, info.ctx, inv, callee, recv)
	if site.cm >= 0 && site.calleeCtx == calleeCtx {
		// The edge to (calleeCtx, callee) is wired and the callee
		// reachable: only the receiver binding can be new.
		if callee.This != nil {
			s.addPtsOne(s.varSlot(int(site.cm), callee.This), obj)
		}
		return
	}
	cm := s.addCallEdge(info.ctx, inv, calleeCtx, callee, obj)
	site = &info.invokes[k]
	site.calleeCtx, site.cm = calleeCtx, int32(cm)
}

// addCallEdge links a (caller, call-site) to a (calleeCtx, callee):
// binds the receiver, wires argument/return edges once per edge, and
// makes the callee reachable. It returns the callee's csMethod.
func (s *solver) addCallEdge(callerCtx *Context, inv *lang.Invoke, calleeCtx *Context, callee *lang.Method, recvObj int) int {
	cm := s.makeReachable(calleeCtx, callee)
	if recvObj >= 0 && callee.This != nil {
		s.addPtsOne(s.varSlot(cm, callee.This), recvObj)
	}
	if !s.recordCall(callerCtx, inv, cm) {
		return cm
	}
	for i, a := range inv.Args {
		s.addEdge(s.varNode(callerCtx, a), s.varSlot(cm, callee.Params[i]), nil)
	}
	if inv.LHS != nil && callee.RetVar != nil {
		s.addEdge(s.varSlot(cm, callee.RetVar), s.varNode(callerCtx, inv.LHS), nil)
	}
	// Exceptions escaping the callee may escape the caller too. The edge
	// is added unconditionally: the callee's $exc may only be populated
	// later (e.g. by a throw in one of its own callees), and an edge
	// over still-empty sets costs nothing.
	s.addEdge(s.varSlot(cm, callee.ExcVar()), s.varNode(callerCtx, inv.In.ExcVar()), nil)
	return cm
}

// recordCall records the call edge (callerCtx, inv) -> csMethod cm in
// the context-sensitive and context-insensitive call graphs; it reports
// false when the edge was already known.
func (s *solver) recordCall(callerCtx *Context, inv *lang.Invoke, cm int) bool {
	if !s.callSeen.add(pack2(int(callerCtx.id), inv.ID), int32(cm)+1) {
		return false
	}
	s.calls = append(s.calls, callRec{inv: inv, callerCtx: callerCtx, callee: int32(cm)})
	for inv.ID >= len(s.ciSites) {
		s.ciSites = append(s.ciSites, ciSite{})
	}
	site := &s.ciSites[inv.ID]
	site.inv = inv
	callee := s.csMethods[cm].m
	for _, m := range site.callees {
		if m == callee {
			return true
		}
	}
	site.callees = append(site.callees, callee)
	s.ciEdges++
	return true
}
