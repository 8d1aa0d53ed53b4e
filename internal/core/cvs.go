package core

import (
	"errors"
	"fmt"
	"sort"

	"dualvdd/internal/sta"
)

// CVSResult reports one CVS run.
type CVSResult struct {
	// Lowered is the number of gates this run moved to Vlow.
	Lowered int
	// TCB is the time-critical boundary: gates that border the low cluster
	// (or the POs) and would violate timing if scaled (paper §2).
	TCB []int
}

// ctxStride is how many gates the CVS sweep examines between context checks;
// the sweep is a single algorithm iteration, so this bounds cancellation
// latency well below one iteration on large circuits.
const ctxStride = 256

// cvsOn runs clustered voltage scaling on a live incremental engine: a
// single reverse-topological sweep from the primary outputs (the
// breadth-first traversal of Usami & Horowitz). A gate is examined only once
// all of its fanouts have been decided; it takes Vlow when the incurred delay
// fits its slack, otherwise it stays high and joins the TCB. Each accepted
// move re-times only the affected cones (the paper's update_timing) instead
// of the whole circuit. cvsOn may run again after the circuit gains slack
// (this is how Gscale pushes the TCB): already-low gates are kept and the
// cluster is extended from its current boundary. Progress events report
// under algo (the outer algorithm when nested) with the given round number.
//
// Under a multi-rail library each gate is demoted one rail step at a time
// while the clustering rule holds at the next step (every consumer already at
// or below the target rail — crossing a rail boundary downward would need a
// level converter, which CVS never inserts) and the step's delay fits the
// slack. At a two-rail library the loop degenerates to the classic single
// VHigh→VLow decision, bit for bit.
func cvsOn(inc *sta.Incremental, opts *Options, algo string, round int) (*CVSResult, error) {
	res := &CVSResult{}
	ckt := inc.Circuit()
	order := inc.Order()
	fan := inc.Fanouts()
	deepest := inc.Library().Deepest()
	for i := len(order) - 1; i >= 0; i-- {
		if i%ctxStride == 0 {
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
		}
		gi := order[i]
		g := ckt.Gates[gi]
		if g.Dead || g.IsLC || g.Volt >= deepest {
			continue
		}
		for g.Volt < deepest {
			if !lowEligible(ckt, fan, gi, g.Volt+1) {
				break
			}
			// check_timing: the arrival increase if gi alone took the next
			// rail.
			out := ckt.GateSignal(gi)
			delta := inc.ArrivalWith(gi, g.Cell, g.Volt+1, inc.Load[out]) - inc.Arrival[out]
			if inc.Slack(out)-delta < slackEps {
				res.TCB = append(res.TCB, gi)
				break
			}
			// update_timing: arrivals grow downstream and required times
			// shrink upstream, so gates examined later (our fanins) see
			// fresh slacks.
			inc.SetVolt(gi, g.Volt+1)
			res.Lowered++
			opts.emit(Event{Algorithm: algo, Kind: EventMove, Round: round, Gate: gi})
		}
	}
	sort.Ints(res.TCB)
	return res, nil
}

// algorithm is one algorithm's part after the CVS clustering they all start
// with: the round its initial CVS moves report under, and the continuation
// that finishes the run from the post-CVS state. cvs is that clustering.
type algorithm struct {
	round int
	cont  func(inc *sta.Incremental, opts *Options, act []float64, cvs *CVSResult) (*Result, error)
}

// algorithms maps each algorithm name to its implementation.
var algorithms = map[string]algorithm{
	"CVS":    {round: 1, cont: cvsFinish},
	"Dscale": {round: 0, cont: dscaleFrom},
	"Gscale": {round: 0, cont: gscaleFrom},
}

// lookup returns the named algorithm.
func lookup(name string) (algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return algorithm{}, fmt.Errorf("core: unknown algorithm %q", name)
	}
	return a, nil
}

// Run runs the named algorithms ("CVS", "Dscale" or "Gscale", at least one,
// in any order, repeats allowed) on an incremental engine with a settled
// annotation. The engine is the run's only handle: the algorithms scale the
// circuit it times (inc.Circuit()) under its library (inc.Library()) and read
// every timing fact from it. The caller owns the engine: a cold run builds a
// fresh one, a warm sweep fences each point on one shared engine with
// Checkpoint/Rollback.
//
// All three algorithms begin with the same CVS clustering, so Run performs it
// once, takes a Checkpoint, and runs each algorithm's continuation from that
// post-CVS state in turn. done receives each result while the engine still
// holds that algorithm's scaled circuit; the engine is then rolled back to
// the checkpoint for the next one, and the last algorithm's state is left in
// place. An error from done stops the run and is returned as is; so does an
// unknown name, when its turn comes.
//
// Every result and event is what a run of that algorithm alone would report.
// Evaluation counts are deltas from run entry, with the shared CVS run's
// evaluations credited to each algorithm. The shared run's moves are emitted
// live under the first algorithm and, when an observer is attached, replayed
// under each later one. More than one algorithm needs KeepJournal: the
// checkpoint must survive every continuation.
func Run(inc *sta.Incremental, names []string, opts Options, done func(i int, res *Result) error) error {
	if len(names) > 1 && !opts.KeepJournal {
		return errors.New("core: running more than one algorithm needs KeepJournal")
	}
	first, err := lookup(names[0])
	if err != nil {
		return err
	}
	act, err := opts.start(inc)
	if err != nil {
		return err
	}
	shared := opts
	var moves []int
	if opts.Observer != nil && len(names) > 1 {
		shared.Observer = func(ev Event) {
			moves = append(moves, ev.Gate)
			opts.Observer(ev)
		}
	}
	cvs, err := cvsOn(inc, &shared, names[0], first.round)
	if err != nil {
		return err
	}
	cvsEvals := inc.Evals() - opts.evalsBase
	mark := inc.Checkpoint()
	for i, name := range names {
		a, err := lookup(name)
		if err != nil {
			return err
		}
		o := opts
		if i > 0 {
			inc.Rollback(mark)
			if err := o.interrupted(); err != nil {
				return err
			}
			for _, gi := range moves {
				o.emit(Event{Algorithm: name, Kind: EventMove, Round: a.round, Gate: gi})
			}
		}
		// Rollback restores the annotation, not the evaluation count.
		o.evalsBase = inc.Evals() - cvsEvals
		res, err := a.cont(inc, &o, act, cvs)
		if err != nil {
			return err
		}
		if err := done(i, res); err != nil {
			return err
		}
	}
	return nil
}

// cvsFinish completes a CVS run: the shared clustering is the whole
// algorithm, one round.
func cvsFinish(inc *sta.Incremental, opts *Options, act []float64, cvs *CVSResult) (*Result, error) {
	if err := selfCheck(inc, opts); err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		opts.emit(Event{
			Algorithm: "CVS", Kind: EventRound, Round: 1, Moves: cvs.Lowered,
			LowGates: inc.Circuit().NumLowGates(), STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
		})
	}
	return &Result{
		Iterations: 1,
		TCB:        cvs.TCB,
		STAEvals:   inc.Evals() - opts.evalsBase,
		Act:        act,
	}, nil
}

// selfCheck cross-validates the incremental engine against a fresh full
// analysis when Options.SelfCheck is set — the differential harness hook.
func selfCheck(inc *sta.Incremental, opts *Options) error {
	if !opts.SelfCheck {
		return nil
	}
	return inc.Check(1e-9)
}
