// Package resyn implements the paper's contribution: the iterative
// two-phase logic-resynthesis procedure (Section III) that eliminates large
// clusters of undetectable DFM faults while maintaining the design
// constraints of critical-path delay, power consumption and die area.
//
// Phase one repeatedly targets the current largest cluster S_max,
// resynthesizing the subcircuit C_sub of its corresponding gates G_max with
// library cells excluded in decreasing order of their internal-fault
// counts, until the share of F inside S_max reaches p1 (1% by default).
// Phase two targets the subcircuit of all gates with undetectable faults,
// reducing the total number of undetectable faults while keeping S_max
// bounded by p2. A backtracking procedure (Section III-C) freezes gates in
// sqrt(n)-sized groups to satisfy the design constraints. The driver sweeps
// the allowed delay/power increase q from 0 to 5 percent, each run applied
// on top of the previous solution.
package resyn

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dfmresyn/internal/equiv"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/lint"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/synth"
)

// Options tunes the procedure; zero values select the paper's settings.
type Options struct {
	// P1 is the phase-one termination target for |S_max|/|F| (default
	// 0.01, the paper's 1%).
	P1 float64
	// MaxQ is the largest acceptable percentage increase in delay and
	// power (default 5).
	MaxQ int
	// MaxItersPhase caps iterations per phase per q (default 40).
	MaxItersPhase int
	// RisingUStop ends a phase's cell scan after this many consecutive
	// analyzed candidates with increasing U (default 2), the paper's
	// gross-trend early termination.
	RisingUStop int
	// Mode selects the technology-mapping cost function.
	Mode synth.Mode

	// --- Ablation knobs (defaults reproduce the paper). ---

	// BacktrackGroup sets the backtracking group size: 0 selects the
	// paper's sqrt(n); a positive value fixes the group size (1 =
	// one-gate-at-a-time); -1 freezes all of G_i at once.
	BacktrackGroup int
	// CellOrder selects the exclusion order of library cells.
	CellOrder CellOrder
	// SkipPhase1 disables phase one (cluster-targeted resynthesis),
	// leaving only the whole-circuit phase two.
	SkipPhase1 bool
	// NoEarlyStop disables the rising-U early phase termination.
	NoEarlyStop bool
	// NoVerify disables the per-candidate functional equivalence check
	// (random/exhaustive simulation against the current circuit).
	NoVerify bool

	// --- Resilience knobs (not part of the checkpoint fingerprint). ---

	// Journal, when non-empty, is the path of the sweep's checkpoint
	// journal: after every accepted iteration the complete resumable sweep
	// state is written there atomically (see checkpoint.go). An
	// interrupted run resumes from it with Resume, reproducing the
	// uninterrupted run's tables byte for byte.
	Journal string
	// StopAfterCommits, when positive, stops the sweep as if the process
	// had been killed right after that many accepted iterations: the run
	// returns its partial Result with an ErrInterrupted error, and the
	// journal (if any) holds exactly those commits. It is the
	// deterministic stand-in for SIGKILL used by the chaos harness and the
	// kill-and-resume differential tests.
	StopAfterCommits int
}

// CellOrder selects how cells are ranked for exclusion.
type CellOrder int

// Cell exclusion orders: by internal-fault count (the paper), by area, or
// by name (a deliberately uninformed baseline).
const (
	OrderInternalFaults CellOrder = iota
	OrderArea
	OrderName
)

func (o Options) withDefaults() Options {
	if o.P1 == 0 {
		o.P1 = 0.01
	}
	if o.MaxQ == 0 {
		o.MaxQ = 5
	}
	if o.MaxItersPhase == 0 {
		o.MaxItersPhase = 40
	}
	if o.RisingUStop == 0 {
		o.RisingUStop = 2
	}
	return o
}

// IterationRecord traces one accepted or attempted resynthesis iteration
// (the series behind Fig. 2).
type IterationRecord struct {
	Q        int
	Phase    int
	Iter     int
	Excluded string // cell whose exclusion produced the attempt
	Accepted bool
	ViaBack  bool // accepted through the backtracking procedure
	U        int
	Smax     int
	F        int
}

// Result is the outcome of the full q-sweep.
type Result struct {
	Orig  *flow.Design
	Final *flow.Design
	// BestQ is the largest q at which an improvement was accepted —
	// the paper's "Max Inc" column.
	BestQ int
	Trace []IterationRecord
	// SynthCalls / PDCalls count Synthesize() and PDesign() invocations.
	SynthCalls int
	PDCalls    int
	// EquivFailures counts candidates rejected by the equivalence safety
	// check; it must stay zero (a nonzero value indicates a mapper bug).
	EquivFailures int
	// LintFailures counts intermediate circuits rejected by the static
	// analyzer when the environment's lint mode is warn or strict; like
	// EquivFailures it must stay zero (a nonzero value indicates a
	// rebuild or placement bug).
	LintFailures int
	// ATPGTime totals the test-generation wall time across the sweep's
	// accepted and rejected PDesign() calls.
	ATPGTime time.Duration
	// StaticProven totals the faults the static implication screen
	// classified Undetectable with zero PODEM searches across the
	// sweep's PDesign() calls (see atpg.Result.StaticProven). Static
	// proofs published to the verdict cache return as ordinary cache
	// hits on later iterations, so this counts fresh proofs only.
	StaticProven int
	// Cache snapshots the fault-verdict cache activity of this run: every
	// ATPG invocation of the q-sweep — including the pre-physical-design
	// undetectable-internal screens — shares one cache, so the hit rate
	// here is the cross-iteration reuse the resynthesis loop achieves.
	Cache fcache.Stats
	// Iters records one telemetry row per accepted iteration, in commit
	// order — the |S_max|, |U| and backtracking-effort trajectory of the
	// sweep (the quantitative series behind Fig. 2, also exported through
	// the metrics registry as the resyn/smax_frac series).
	Iters []IterStats
	// BacktrackGroupsTried / BacktrackGroupsAccepted count sqrt(n)-group
	// freeze attempts across the whole sweep, including iterations whose
	// backtracking found no acceptable design.
	BacktrackGroupsTried    int
	BacktrackGroupsAccepted int

	// --- Resilience telemetry. ---

	// Interrupted marks a sweep stopped before its natural end (context
	// cancellation, stage deadline, or StopAfterCommits). The Result then
	// holds the consistent prefix up to and including the last accepted
	// iteration; Final is the last committed design.
	Interrupted bool
	// Resumed marks a sweep reconstructed from a checkpoint journal;
	// ReplayedCommits counts the accepted iterations replayed from it.
	// Tables and traces of a resumed run are byte-identical to the
	// uninterrupted run's; effort counters (SynthCalls, PDCalls) cover
	// only the work this process actually performed.
	Resumed         bool
	ReplayedCommits int
	// Recovered / Quarantined total the ATPG worker panics that were
	// retried successfully and the faults abandoned after a failed retry,
	// across every analysis of the sweep. Quarantined must stay zero in
	// production; the chaos harness drives it on purpose.
	Recovered   int
	Quarantined int
	// SATEscalations / SATConflicts total the CDCL escalation tier's work
	// across every analysis of the sweep (see atpg.Result): hard faults
	// whose limited PODEM search gave up and were re-solved to a
	// definitive verdict, and the solver conflicts those proofs cost.
	SATEscalations int
	SATConflicts   int64
	// Tiers totals the per-verdict provenance breakdown over every
	// PDesign() analysis of the sweep (accepted and rejected candidates
	// alike; see atpg.Result.Tiers) — which engine tier carried the
	// sweep's classification work.
	Tiers obs.TierCounts
}

// IterStats is the telemetry of one accepted resynthesis iteration.
type IterStats struct {
	Q, Phase, Iter int
	// U, Smax, F snapshot the committed design; SmaxFrac is |S_max|/|F|,
	// the quantity phase one drives to p1.
	U, Smax, F int
	SmaxFrac   float64
	// BacktrackTried / BacktrackAccepted count the group-freeze attempts
	// spent inside this iteration (0/0 for a directly accepted candidate).
	BacktrackTried    int
	BacktrackAccepted int
	// Tiers is the provenance breakdown of the committed design's analysis
	// (atpg.Result.Tiers): which engine tier decided its verdicts. On a
	// resumed run, replayed rows reflect the replay-time cache state — more
	// cache hits than the original run had at that commit — so the row-level
	// Tiers of replayed commits are informational, not identity-checked.
	Tiers obs.TierCounts
}

// state carries the procedure's working data.
type state struct {
	env *flow.Env
	opt Options

	orig *flow.Design // constraints reference
	cur  *flow.Design

	q       int
	gen     int // rebuild-generation counter for unique gate prefixes
	res     *Result
	ordered []*library.Cell // by internal fault count, descending

	// curUIntNet caches UndetectableInternal(cur.C); refreshed on commit.
	curUIntNet int
	uintValid  bool
	// iterBtTried / iterBtAcc count backtracking group attempts within the
	// current iteration (reset by tryCells, snapshotted by commit).
	iterBtTried, iterBtAcc int
	// committedAtQ / constraintBlocked drive the q sweep: raising q only
	// helps when some accepted candidate was blocked by constraints.
	committedAtQ      bool
	constraintBlocked bool

	// stopped, once non-nil, makes every loop unwind without further
	// synthesis work; it becomes the sweep's returned error. Set on
	// context cancellation, on StopAfterCommits, and on a failed
	// checkpoint write.
	stopped error
	// commits accumulates one record per accepted iteration — replayed
	// records first on a resumed run — and is what each checkpoint
	// journals. Only populated when opt.Journal is set.
	commits []commitRecord
}

// curUInt returns the cached undetectable-internal count of the current
// netlist.
func (s *state) curUInt() int {
	if !s.uintValid {
		s.curUIntNet = s.env.UndetectableInternal(s.cur.C)
		s.uintValid = true
	}
	return s.curUIntNet
}

// Run applies the full procedure to circuit c: original flow, then the
// incremental q sweep.
func Run(env *flow.Env, c *netlist.Circuit, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		return nil, fmt.Errorf("resyn: original flow failed: %w", err)
	}
	return RunFrom(env, orig, opt)
}

// RunFrom applies the q sweep starting from an already-analyzed original
// design. When the sweep is interrupted (cancelled context, stage deadline,
// StopAfterCommits) the partial Result — a consistent prefix ending at the
// last accepted iteration — is returned together with an error wrapping
// resilience.ErrInterrupted; with Options.Journal set, that prefix is also
// durable on disk and Resume continues it.
func RunFrom(env *flow.Env, orig *flow.Design, opt Options) (*Result, error) {
	return runSweep(env, orig, opt.withDefaults(), nil)
}

// runSweep is the sweep core shared by RunFrom and Resume: ck, when non-nil,
// is an already-validated checkpoint whose commit chain is replayed before
// the sweep continues from the journaled loop position.
func runSweep(env *flow.Env, orig *flow.Design, opt Options, ck *Checkpoint) (*Result, error) {
	// The whole q-sweep shares one fault-verdict cache: faults whose
	// support cone a rebuild leaves untouched keep their verdicts instead
	// of re-entering PODEM. A caller-installed cache is reused; otherwise
	// a fresh one lives for exactly this run (so a later baseline Analyze
	// on the same Env stays uncached).
	cacheStart := fcache.Stats{}
	if env.FaultCache == nil {
		env.FaultCache = fcache.New()
		defer func() { env.FaultCache = nil }()
	} else {
		cacheStart = env.FaultCache.Stats()
	}
	s := &state{
		env:  env,
		opt:  opt,
		orig: orig,
		cur:  orig,
		res:  &Result{Orig: orig, BestQ: -1},
	}
	switch opt.CellOrder {
	case OrderArea:
		s.ordered = env.Lib.SortedBy(func(cell *library.Cell) float64 { return cell.Area })
	case OrderName:
		s.ordered = env.Lib.SortedBy(func(*library.Cell) float64 { return 0 }) // name tie-break
	default:
		s.ordered = env.Lib.SortedBy(func(cell *library.Cell) float64 {
			return float64(env.Prof.InternalFaultCount(cell))
		})
	}
	spRun := obs.Start(env.Obs, "resyn/sweep", obs.Int("gates", len(orig.C.Gates)))
	defer spRun.End()
	// Seed the trajectory with the original design so the exported series
	// starts at the pre-resynthesis |S_max|/|F|.
	env.Obs.Series("resyn/smax_frac").Append(smaxFrac(orig))
	startQ := 0
	var rp *resumePoint
	if ck != nil {
		if err := s.replay(ck); err != nil {
			return nil, err
		}
		startQ = ck.Q
		rp = &resumePoint{phase: ck.Phase, nextIter: ck.NextIter, p2: ck.P2}
	}
	for q := startQ; q <= opt.MaxQ; q++ {
		s.q = q
		if rp != nil {
			// Mid-q resume: the per-q flags are part of the journaled
			// state, not recomputed, so the continuation sees exactly
			// what the interrupted run saw.
			s.committedAtQ = ck.CommittedAtQ
			s.constraintBlocked = ck.ConstraintBlocked
		} else {
			s.committedAtQ = false
			s.constraintBlocked = false
		}
		spQ := obs.Start(env.Obs, "resyn/q", obs.Int("q", q))
		s.runPhases(rp)
		rp = nil
		spQ.End()
		if s.stopped != nil {
			break
		}
		// Raising q only relaxes the delay/power constraints; when the
		// last pass neither improved nor hit a constraint wall, higher
		// q cannot change any outcome.
		if !s.committedAtQ && !s.constraintBlocked {
			break
		}
	}
	s.res.Final = s.cur
	if s.stopped == nil && len(s.res.Trace) > 0 {
		// Signoff: the reported final design is re-classified with the
		// verdict cache bypassed, so its test set and coverage are a pure
		// function of the final circuit rather than of the sweep's cache
		// history — the paper likewise reports Table II from a standalone
		// ATPG run on the resynthesized design. The physical results (and
		// therefore U, S_max, delay and power) are shared untouched, so
		// the row stays consistent with the acceptance decisions.
		spSign := obs.Start(env.Obs, "resyn/signoff")
		fd, err := env.VerifyFaults(s.cur)
		spSign.End()
		if err != nil {
			s.stopped = fmt.Errorf("resyn: final signoff reclassification: %w", err)
		} else {
			s.res.Final = fd
		}
	}
	end := env.FaultCache.Stats()
	s.res.Cache = fcache.Stats{
		Lookups: end.Lookups - cacheStart.Lookups,
		Hits:    end.Hits - cacheStart.Hits,
		Stores:  end.Stores - cacheStart.Stores,
		Corrupt: end.Corrupt - cacheStart.Corrupt,
		Entries: end.Entries,
	}
	if s.stopped != nil {
		s.res.Interrupted = errors.Is(s.stopped, resilience.ErrInterrupted)
		return s.res, s.stopped
	}
	return s.res, nil
}

// resumePoint positions the first runPhases call of a resumed sweep: which
// phase to re-enter, at which iteration, and — for a phase-2 resume — the
// p2 bound frozen when the interrupted run entered phase two (recomputing it
// from the replayed circuit would diverge, since phase 1 may have kept
// shrinking S_max after the journaled commit).
type resumePoint struct {
	phase    int
	nextIter int
	p2       float64
}

// constraintsOK checks delay/power against the original with slack q%, as
// well as the fixed die (checked implicitly by Analyze via PlaceInDie).
func (s *state) constraintsOK(d *flow.Design) bool {
	slack := 1 + float64(s.q)/100
	if d.Timing.CriticalDelay > s.orig.Timing.CriticalDelay*slack {
		return false
	}
	if d.Power.Total > s.orig.Power.Total*slack {
		return false
	}
	return true
}

// smaxFrac returns |S_max| / |F| of a design.
func smaxFrac(d *flow.Design) float64 {
	f := d.Faults.Len()
	if f == 0 {
		return 0
	}
	return float64(len(d.Clusters.Smax())) / float64(f)
}

// undetectable returns the total and internal undetectable counts.
func undetectable(d *flow.Design) (total, internal int) {
	c := d.Faults.Count()
	return c.Undetectable, c.UndetectableInt
}

// runPhases executes phase one and phase two at the current q. rp, non-nil
// only on the first call of a resumed sweep, re-enters the journaled phase at
// the journaled iteration: a phase-2 resume skips phase 1 entirely (it had
// already terminated in the interrupted run) and restores the frozen p2.
func (s *state) runPhases(rp *resumePoint) {
	startIter1, startIter2 := 0, 0
	skip1 := s.opt.SkipPhase1
	var p2Frozen *float64
	if rp != nil {
		switch rp.phase {
		case 1:
			startIter1 = rp.nextIter
		case 2:
			skip1 = true
			startIter2 = rp.nextIter
			p2 := rp.p2
			p2Frozen = &p2
		}
	}

	// ---- Phase one: break up the largest clusters.
	sp1 := obs.Start(s.env.Obs, "resyn/phase1")
	for iter := startIter1; !skip1 && s.stopped == nil && iter < s.opt.MaxItersPhase; iter++ {
		if smaxFrac(s.cur) <= s.opt.P1 {
			break
		}
		gmax := s.cur.Clusters.Gmax()
		if len(gmax) == 0 {
			break
		}
		improved := s.tryCells(gmax, 1, iter, 0)
		if !improved {
			break
		}
	}
	sp1.End()
	if s.stopped != nil {
		return
	}

	// ---- Phase two: reduce U everywhere, bounding S_max by p2.
	p2 := math.Max(s.opt.P1, smaxFrac(s.cur))
	if p2Frozen != nil {
		p2 = *p2Frozen
	}
	sp2 := obs.Start(s.env.Obs, "resyn/phase2")
	for iter := startIter2; s.stopped == nil && iter < s.opt.MaxItersPhase; iter++ {
		gu := s.cur.Clusters.GU
		if len(gu) == 0 {
			break
		}
		improved := s.tryCells(gu, 2, iter, p2)
		if !improved {
			break
		}
	}
	sp2.End()
}

// hostsOfUndetectableInternal returns the set of gates containing
// undetectable internal faults in the current design.
func (s *state) hostsOfUndetectableInternal() map[*netlist.Gate]bool {
	hosts := map[*netlist.Gate]bool{}
	for _, f := range s.cur.Faults.Faults {
		if f.Internal && f.Status == fault.Undetectable {
			hosts[f.Gate] = true
		}
	}
	return hosts
}

// tryCells is one iteration of a phase over subcircuit gates: it considers
// the library cells in decreasing internal-fault order and commits the
// first acceptable resynthesized design. Returns whether an improvement was
// committed.
func (s *state) tryCells(subGates []*netlist.Gate, phase, iter int, p2 float64) bool {
	sp := obs.Start(s.env.Obs, "resyn/iter",
		obs.Int("phase", phase), obs.Int("iter", iter), obs.Int("q", s.q))
	defer sp.End()
	s.iterBtTried, s.iterBtAcc = 0, 0
	// The subcircuit must be convex for the rebuild; gates on paths that
	// leave and re-enter it are pulled in (and stay frozen unless they
	// host undetectable internal faults themselves).
	region := netlist.ExtractRegion(netlist.ConvexClosure(s.cur.C, subGates))
	hosts := s.hostsOfUndetectableInternal()

	// G_zero: subcircuit gates with no undetectable internal faults.
	gzero := func(g *netlist.Gate) bool { return !hosts[g] }

	// Cell types present in C_sub with undetectable internal faults.
	typesWithU := map[*library.Cell]bool{}
	anyUnfrozen := false
	for _, g := range region.Gates {
		if hosts[g] {
			typesWithU[g.Type] = true
			anyUnfrozen = true
		}
	}
	if !anyUnfrozen {
		return false
	}

	curU, _ := undetectable(s.cur)
	curUIntNet := s.curUInt()
	curSmax := len(s.cur.Clusters.Smax())

	rising := 0
	lastU := curU
	for i, cell := range s.ordered {
		if s.stopped != nil {
			return false
		}
		// Eligibility (1) and (2): the cell is used in C_sub and at
		// least one instance of it there has undetectable internal
		// faults.
		if !typesWithU[cell] {
			continue
		}
		allowed := allowedSet(s.ordered[i+1:])

		// Area-oriented mapping first; if that satisfies the acceptance
		// criteria but breaks timing/power, retry with delay-oriented
		// mapping before resorting to the backtracking procedure — the
		// commercial Synthesize() of the paper is constraint-driven and
		// performs this trade-off internally.
		modes := []synth.Mode{s.opt.Mode}
		if s.opt.Mode == synth.Area {
			modes = append(modes, synth.Delay)
		}
		violated := false
		anyAnalyzed := false
		var lastAnalyzed *flow.Design
		for _, mode := range modes {
			newD, status := s.attempt(region, allowed, gzero, mode, curUIntNet)
			if status != attemptOK {
				continue
			}
			anyAnalyzed = true
			lastAnalyzed = newD
			accepted := s.accepts(newD, phase, p2, curU, curSmax)
			consOK := s.constraintsOK(newD)
			if accepted && consOK {
				s.commit(newD, phase, iter, p2, cell.Name, false)
				return true
			}
			if accepted && !consOK {
				violated = true
				s.constraintBlocked = true
			}
		}
		if s.stopped != nil {
			return false
		}
		if violated {
			// Acceptance criteria met but constraints broken in every
			// mode: invoke the backtracking procedure.
			if d, ok := s.backtrack(region, gzero, i, phase, p2, curU, curSmax, curUIntNet); ok {
				s.commit(d, phase, iter, p2, cell.Name, true)
				return true
			}
			return false // phase terminates
		}
		if anyAnalyzed {
			// Not accepted: track the gross U trend for early
			// termination.
			u, _ := undetectable(lastAnalyzed)
			if u > lastU {
				rising++
				if !s.opt.NoEarlyStop && rising >= s.opt.RisingUStop {
					return false
				}
			} else {
				rising = 0
			}
			lastU = u
		}
	}
	return false
}

// attemptStatus reports why an attempt stopped short of full analysis.
type attemptStatus int

const (
	attemptOK attemptStatus = iota
	attemptSynthFailed
	attemptNoUIntGain
	attemptAreaViolation
	attemptLintFailed
	// attemptInterrupted means the run's context was cancelled before or
	// during the analysis; s.stopped is set and every enclosing loop
	// unwinds. It must never set constraintBlocked — an interrupted
	// analysis says nothing about the constraint wall.
	attemptInterrupted
)

// attempt synthesizes the region with the allowed cells, screens on
// undetectable internal faults, and analyzes the result in the original
// die.
func (s *state) attempt(region *netlist.Region, allowed func(*library.Cell) bool,
	frozen func(*netlist.Gate) bool, mode synth.Mode, curUIntNet int) (*flow.Design, attemptStatus) {

	// Check cancellation before spending synthesis work: after the run is
	// interrupted every further attempt would only burn CPU on results
	// that will be discarded.
	if err := resilience.Err(s.env.Ctx); err != nil {
		s.stopped = err
		return nil, attemptInterrupted
	}
	s.gen++
	prefix := fmt.Sprintf("r%d_", s.gen)
	rs, err := synth.SynthesizeRegion(s.cur.C, region, s.env.Mapper, allowed, mode, frozen, prefix)
	if err != nil {
		return nil, attemptSynthFailed
	}
	newC, err := rs.Rebuild(s.cur.C)
	if err != nil {
		return nil, attemptSynthFailed
	}
	s.res.SynthCalls++
	s.env.Obs.Counter("resyn/synth_calls").Inc()

	// Debug/strict mode: every intermediate circuit the procedure creates
	// is linted against the pipeline contract — the rebuilt netlist must
	// be structurally sound, preserve the PI/PO interface of its parent,
	// and come from a convex region.
	if s.env.Lint != lint.ModeOff {
		fs := lint.Run(&lint.Context{Circuit: newC, Prev: s.cur.C, Region: region})
		if lint.CountAtLeast(fs, lint.Error) > 0 {
			s.res.LintFailures++
			if s.env.Lint == lint.ModeStrict {
				return nil, attemptLintFailed
			}
		}
	}

	// Safety net: the resynthesized circuit must implement the same
	// function (exhaustive for small PI counts, sampled otherwise).
	if !s.opt.NoVerify {
		eq, err := equiv.Check(s.cur.C, newC, 8, s.env.Seed)
		if err != nil || !eq.Equivalent {
			s.res.EquivFailures++
			return nil, attemptSynthFailed
		}
	}

	// PDesign() only when undetectable internal faults decrease.
	if s.env.UndetectableInternal(newC) >= curUIntNet {
		return nil, attemptNoUIntGain
	}
	newD, err := s.env.AnalyzeIncremental(newC, s.cur)
	s.res.PDCalls++
	s.env.Obs.Counter("resyn/pd_calls").Inc()
	if newD != nil {
		s.res.ATPGTime += newD.ATPGTime
		s.res.StaticProven += newD.Result.StaticProven
		s.res.Recovered += newD.Result.Recovered
		s.res.Quarantined += len(newD.Result.Quarantined)
		s.res.SATEscalations += newD.Result.SATEscalations
		s.res.SATConflicts += newD.Result.SATConflicts
		s.res.Tiers.Merge(newD.Result.Tiers)
	}
	if err != nil {
		if errors.Is(err, resilience.ErrInterrupted) {
			// Cancelled mid-analysis: the partial classification is
			// discarded with the candidate. Not a constraint wall.
			s.stopped = err
			return nil, attemptInterrupted
		}
		if errors.Is(err, lint.ErrFindings) {
			// A strict-mode lint failure on the analyzed design (stale
			// fault sites, illegal placement) is a pipeline bug, not an
			// area violation — count it separately and do not let it
			// masquerade as a constraint wall.
			s.res.LintFailures++
			return nil, attemptLintFailed
		}
		s.constraintBlocked = true
		return nil, attemptAreaViolation
	}
	return newD, attemptOK
}

// accepts applies the phase acceptance criteria of Section III-B.
func (s *state) accepts(d *flow.Design, phase int, p2 float64, curU, curSmax int) bool {
	u, _ := undetectable(d)
	smax := len(d.Clusters.Smax())
	if phase == 1 {
		return smax < curSmax && u <= curU
	}
	return u < curU && smaxFrac(d) <= p2
}

// commit installs an accepted design and records the trace entry plus the
// iteration's telemetry row. With a journal configured, the full resumable
// sweep state is written atomically before the commit returns — a process
// killed any time after commit resumes from exactly here. p2 is the bound
// the enclosing phase is running under, frozen into the checkpoint so a
// phase-2 resume does not recompute it.
func (s *state) commit(d *flow.Design, phase, iter int, p2 float64, cellName string, viaBack bool) {
	rec := commitRecord{
		Q:        s.q,
		Phase:    phase,
		Iter:     iter,
		Excluded: cellName,
		ViaBack:  viaBack,
		BtTried:  s.iterBtTried,
		BtAcc:    s.iterBtAcc,
	}
	if s.opt.Journal != "" {
		text, err := circuitText(d.C)
		if err != nil {
			s.stopped = fmt.Errorf("resyn: serializing committed circuit for checkpoint: %v", err)
			return
		}
		rec.Circuit = text
	}
	s.recordCommit(d, rec)
	s.committedAtQ = true
	if s.opt.Journal != "" {
		s.commits = append(s.commits, rec)
		if err := s.writeCheckpoint(phase, iter, p2); err != nil {
			// Continuing without durability would silently void the
			// resume guarantee the caller asked for; abort instead.
			s.stopped = fmt.Errorf("resyn: checkpoint write failed: %v", err)
			return
		}
		s.env.Obs.Counter("resyn/checkpoints_written").Inc()
	}
	if s.opt.StopAfterCommits > 0 && len(s.res.Trace) >= s.opt.StopAfterCommits {
		s.stopped = fmt.Errorf("resyn: stopped after %d accepted iterations (simulated kill): %w",
			len(s.res.Trace), resilience.ErrInterrupted)
	}
}

// recordCommit performs the bookkeeping shared by a live commit and a
// journal replay: install the design as current and append the trace and
// telemetry rows. The U/Smax/F columns are recomputed from the design, so a
// replayed row is identical to the original run's without journaling them.
func (s *state) recordCommit(d *flow.Design, rec commitRecord) {
	s.cur = d
	s.uintValid = false
	u, _ := undetectable(d)
	smax := len(d.Clusters.Smax())
	s.res.Trace = append(s.res.Trace, IterationRecord{
		Q:        rec.Q,
		Phase:    rec.Phase,
		Iter:     rec.Iter,
		Excluded: rec.Excluded,
		Accepted: true,
		ViaBack:  rec.ViaBack,
		U:        u,
		Smax:     smax,
		F:        d.Faults.Len(),
	})
	s.res.Iters = append(s.res.Iters, IterStats{
		Q: rec.Q, Phase: rec.Phase, Iter: rec.Iter,
		U: u, Smax: smax, F: d.Faults.Len(),
		SmaxFrac:          smaxFrac(d),
		BacktrackTried:    rec.BtTried,
		BacktrackAccepted: rec.BtAcc,
		Tiers:             d.Result.Tiers,
	})
	// One iter record per accepted iteration. Replay calls recordCommit with
	// the environment's ledger nilled, so a resumed run's ledger continues
	// exactly where the killed run's stopped.
	s.env.Ledger.Iter(obs.LedgerRecord{
		Q: rec.Q, Phase: rec.Phase, Iter: rec.Iter,
		U: u, Smax: smax, F: d.Faults.Len(),
		Tiers: d.Result.Tiers,
	})
	s.env.Obs.Counter("resyn/commits").Inc()
	s.env.Obs.Series("resyn/smax_frac").Append(smaxFrac(d))
	s.env.Obs.Gauge("resyn/undetectable").Set(float64(u))
	if rec.Q > s.res.BestQ {
		s.res.BestQ = rec.Q
	}
}

// backtrack implements Section III-C: gates of the excluded cell types are
// frozen in groups of sqrt(n) until the constraints hold; if the
// constraints hold but acceptance fails, the last group is unfrozen one
// gate at a time.
func (s *state) backtrack(region *netlist.Region, gzero func(*netlist.Gate) bool,
	cellIdx, phase int, p2 float64, curU, curSmax, curUIntNet int) (*flow.Design, bool) {

	sp := obs.Start(s.env.Obs, "resyn/backtrack", obs.Int("phase", phase))
	defer sp.End()
	excluded := map[*library.Cell]bool{}
	for _, c := range s.ordered[:cellIdx+1] {
		excluded[c] = true
	}
	allowed := allowedSet(s.ordered[cellIdx+1:])

	// G_i: replaceable gates of the excluded types, in gate-ID order.
	var gi []*netlist.Gate
	for _, g := range region.Gates {
		if excluded[g.Type] && !gzero(g) {
			gi = append(gi, g)
		}
	}
	n := len(gi)
	if n == 0 {
		return nil, false
	}
	step := int(math.Ceil(math.Sqrt(float64(n))))
	switch {
	case s.opt.BacktrackGroup > 0:
		step = s.opt.BacktrackGroup
	case s.opt.BacktrackGroup < 0:
		step = n
	}

	try := func(backCount int) (*flow.Design, bool, bool) {
		s.iterBtTried++
		s.res.BacktrackGroupsTried++
		s.env.Obs.Counter("resyn/backtrack_groups_tried").Inc()
		back := map[*netlist.Gate]bool{}
		for _, g := range gi[:backCount] {
			back[g] = true
		}
		frozen := func(g *netlist.Gate) bool { return gzero(g) || back[g] }
		d, status := s.attempt(region, allowed, frozen, s.opt.Mode, curUIntNet)
		if status != attemptOK {
			return nil, false, false
		}
		return d, s.constraintsOK(d), s.accepts(d, phase, p2, curU, curSmax)
	}
	accept := func(d *flow.Design) (*flow.Design, bool) {
		s.iterBtAcc++
		s.res.BacktrackGroupsAccepted++
		s.env.Obs.Counter("resyn/backtrack_groups_accepted").Inc()
		return d, true
	}

	for k := step; k <= n; k += step {
		if s.stopped != nil {
			return nil, false
		}
		if k > n {
			k = n
		}
		d, consOK, accOK := try(k)
		if d == nil {
			continue
		}
		if consOK && accOK {
			return accept(d)
		}
		if consOK && !accOK {
			// Unfreeze the last group one gate at a time.
			lo := k - step
			if lo < 0 {
				lo = 0
			}
			for j := k - 1; j > lo; j-- {
				if s.stopped != nil {
					return nil, false
				}
				d2, c2, a2 := try(j)
				if d2 != nil && c2 && a2 {
					return accept(d2)
				}
			}
			return nil, false
		}
	}
	return nil, false
}

// allowedSet builds the allowed-cell predicate from a slice.
func allowedSet(cells []*library.Cell) func(*library.Cell) bool {
	set := make(map[*library.Cell]bool, len(cells))
	for _, c := range cells {
		set[c] = true
	}
	return func(c *library.Cell) bool { return set[c] }
}
