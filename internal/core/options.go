// Package core implements the paper's gate-level dual-supply-voltage
// algorithms:
//
//   - CVS, the clustered voltage scaling baseline of Usami & Horowitz that
//     the paper re-implements: a reverse-topological traversal from the
//     primary outputs that lowers a gate's supply only when all of its
//     fanouts are already low (or are primary outputs), so the low-voltage
//     gates form a single cluster and no level restoration is needed inside
//     the block;
//   - Dscale (§2), which exploits the remaining slack anywhere in the
//     circuit: candidates that can absorb the Vlow delay penalty are
//     weighted by net power gain and selected with a maximum-weight
//     independent set on the transitive graph so no two selected gates share
//     a path; level converters are inserted at every low→high boundary; and
//   - Gscale (§3), which creates new slack instead: it pushes the
//     time-critical boundary (TCB) toward the primary inputs by up-sizing a
//     minimum-weight separator of the critical path network each iteration,
//     then re-running CVS, within a global area budget.
package core

import (
	"context"
	"fmt"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// slackEps is the timing slack tolerance (ns): a move must leave at least
// slackEps of slack margin to be accepted, and a run must meet Tspec within
// it.
const slackEps = 1e-9

// Options configures the scaling algorithms. The defaults reproduce the
// paper's evaluation setup. The slack tolerance is fixed (slackEps), not an
// option.
type Options struct {
	// MaxIter is Gscale's bound on consecutive unsuccessful TCB pushes; the
	// paper uses 10.
	MaxIter int
	// MaxAreaIncrease is Gscale's global area budget as a fraction of the
	// original area; the paper uses 0.10.
	MaxAreaIncrease float64
	// Fclk is the clock frequency for power weighting (20 MHz in the paper).
	Fclk float64
	// GreedySelect replaces Dscale's maximum-weight-independent-set
	// selection with a greedy highest-gain-first commit loop. Ablation knob:
	// it quantifies what the paper's MWIS formulation buys.
	GreedySelect bool
	// GreedySizing replaces Gscale's minimum-weight-separator cut with
	// up-sizing the single most profitable critical gate per iteration.
	// Ablation knob for the paper's min-cut formulation.
	GreedySizing bool
	// SelfCheck cross-validates the incremental timing engine against a
	// fresh full analysis at every algorithm checkpoint. Differential-test
	// hook; far too slow for production runs.
	SelfCheck bool
	// KeepJournal keeps the engine's undo journal intact across the run: the
	// Commit that otherwise ends each round (capping journal growth) is
	// skipped, so a Checkpoint mark taken by the caller before the run
	// survives it and a single Rollback restores the pre-run circuit exactly.
	// This is the warm-sweep mode: one baseline engine serves many points.
	// Run needs it for more than one algorithm, whose continuations all roll
	// back to one post-CVS mark.
	KeepJournal bool
	// Activities is the per-signal 0→1 switching activity of the input
	// circuit (the table sim.Run returns, one entry per signal) and is
	// required: Dscale weights its candidates with it. Activities are a
	// property of the logic alone — voltage moves never change them and
	// inserted level converters are buffers that toggle exactly like their
	// source — so a table computed once per circuit serves every run and
	// every voltage point. The slice is never mutated: Dscale extends a copy
	// and returns it in Result.Act.
	Activities []float64
	// Ctx, when non-nil, is checked at every algorithm iteration (every
	// Dscale round, every Gscale push, and periodically inside the CVS
	// sweep); a cancelled or expired context aborts the run with ctx.Err()
	// within one iteration. The observed circuit may carry a partially
	// applied scaling when that happens — callers run algorithms on clones.
	Ctx context.Context
	// Observer, when non-nil, receives a progress Event for every accepted
	// per-gate move and every finished algorithm iteration. It is called
	// synchronously from the algorithm loop; observers must be cheap and
	// must not mutate the circuit.
	Observer Observer

	// evalsBase is the engine's evaluation count at the algorithm's entry;
	// events and results report deltas against it, so a run on a shared warm
	// engine reports exactly what a run on a fresh engine would. Run sets it
	// per continuation to the count at the continuation's start minus the
	// shared CVS run's evaluations: Rollback restores the annotation but not
	// the count, and each algorithm is credited with the CVS run it shares.
	evalsBase int64
}

// EventKind discriminates progress events.
type EventKind uint8

const (
	// EventMove is one accepted per-gate move (a supply lowering).
	EventMove EventKind = iota
	// EventRound is one finished algorithm iteration (a Dscale round or a
	// Gscale TCB push; CVS emits a single round for its one sweep).
	EventRound
)

// Event is a progress notification from an algorithm loop.
type Event struct {
	// Algorithm is "CVS", "Dscale" or "Gscale". CVS runs nested inside
	// Dscale and Gscale report under the outer algorithm's name.
	Algorithm string
	Kind      EventKind
	// Round is the iteration number, starting at 1 (0 = the initial nested
	// CVS clustering of Dscale/Gscale).
	Round int
	// Gate is the moved gate's index (EventMove only).
	Gate int
	// Moves counts the accepted moves of the finished iteration — lowered
	// gates for CVS/Dscale rounds, resized gates for Gscale pushes
	// (EventRound only).
	Moves int
	// LowGates is the current number of ordinary gates at Vlow.
	LowGates int
	// Power is the current total-power estimate in watts, filled when the
	// loop has activity data at hand (Dscale rounds, which report the
	// estimate their result does); 0 means "not computed", never "zero
	// power".
	Power float64
	// STAEvals is the cumulative incremental-timing evaluation count.
	STAEvals int64
	// WorstArrival is the current critical-path arrival time (ns).
	WorstArrival float64
}

// Observer receives progress events from an algorithm loop.
type Observer func(Event)

// interrupted returns the context's error, if a context is set and done.
func (o *Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// emit sends ev to the observer, if one is set.
func (o *Options) emit(ev Event) {
	if o.Observer != nil {
		o.Observer(ev)
	}
}

// start prepares a run on inc: it records the engine's evaluation count for
// the run's deltas and returns the activity table with its capacity capped,
// so the level-converter activities Dscale appends copy instead of
// scribbling on the caller's table.
func (o *Options) start(inc *sta.Incremental) ([]float64, error) {
	o.evalsBase = inc.Evals()
	n, signals := len(o.Activities), inc.Circuit().NumSignals()
	if n != signals {
		return nil, fmt.Errorf("core: activity table has %d entries for %d signals", n, signals)
	}
	return o.Activities[:n:n], nil
}

// DefaultOptions returns the paper's parameters. The timing constraint is
// the engine's (sta.NewIncremental's tspec), not an option.
func DefaultOptions() Options {
	return Options{
		MaxIter:         10,
		MaxAreaIncrease: 0.10,
		Fclk:            20e6,
	}
}

// Result summarises what a scaling algorithm did to a circuit, beyond what
// the scaled circuit itself shows (its gates' rails, its level converters
// and its area).
type Result struct {
	// Sized is the number of gates whose cell size Gscale changed.
	Sized int
	// Iterations counts algorithm iterations (Dscale rounds or Gscale
	// pushes).
	Iterations int
	// TCB holds the final time-critical boundary (gate indices).
	TCB []int
	// STAEvals counts per-gate timing evaluations spent by the incremental
	// engine over the whole run — the cost a full re-analysis per move would
	// multiply by the circuit size.
	STAEvals int64
	// CandEvals counts Dscale candidate-cache re-evaluations (cache
	// misses): gates visited because their timing, loads or neighborhood
	// changed. A full per-round rescan pays live-gates × (Iterations+1)
	// such visits; under the incremental cache, rounds after the first
	// touch only the disturbed region.
	CandEvals int64
	// Act is the run's per-signal activity table — Options.Activities
	// extended by the (aliased) activities of inserted level converters. It
	// equals a fresh simulation of the scaled circuit entry for entry, so
	// cold and warm runs both price the scaled circuit with
	// power.EstimateWithLoads over it and never simulate.
	Act []float64
}

// lowEligible reports whether gate gi may legally take the target rail under
// the clustering rule: every consumer is already at or below the target rail
// or a primary output — a consumer on a higher rail cannot accept the reduced
// swing without a level converter, which CVS never inserts. A gate that
// drives nothing is not eligible. At a two-rail library with target VLow this
// is exactly the classic "every consumer is a Vlow gate" rule.
func lowEligible(ckt *netlist.Circuit, fan *netlist.Fanouts, gi int, target cell.VoltLevel) bool {
	out := ckt.GateSignal(gi)
	for _, cn := range fan.Conns[out] {
		if ckt.Gates[cn.Gate].Volt < target {
			return false
		}
	}
	return len(fan.Conns[out]) > 0 || fan.POs[out] > 0
}
