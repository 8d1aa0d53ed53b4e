package core

import (
	"fmt"
	"slices"

	"dualvdd/internal/cell"
	"dualvdd/internal/graph"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sta"
)

// weightScale converts power gains in watts to the integer weights the flow
// network uses. 1e12 keeps sub-µW gains well resolved.
const weightScale = 1e12

// candidate is one Dscale candSet entry.
type candidate struct {
	gate     int
	deltaArr float64 // arrival penalty at the gate output if lowered
	lcDelay  float64 // extra level-converter delay on low→high paths
	gain     float64 // net power gain in watts (after LC costs)
	needLC   bool
}

// evalCandidate implements the paper's check_timing plus power weighting for
// one gate: could it demote one rail step within its slack, and what would
// the exact net power gain be once level-restoration costs are charged? It
// reads the live incremental annotation; nothing is recomputed globally.
//
// Under a multi-rail library the candidate move is "demote one rail step"
// (rail i → i+1). Consumers on rails above the target need the restored swing
// and hang off a level converter for the crossing; consumers at or below the
// target (and POs) stay directly connected. The converter is powered at the
// highest rail among the restored consumers, with the pair cell for that
// crossing. A gate already driving a converter is not a candidate: its
// crossing is fixed at insertion (the converter would need rebinding), so the
// gate holds its rail. At two rails all of this collapses to the classic
// VHigh→VLow evaluation, bit for bit.
func evalCandidate(inc *sta.Incremental, act []float64, fclk float64, gi int) (candidate, bool) {
	ckt, lib := inc.Circuit(), inc.Library()
	g := ckt.Gates[gi]
	out := ckt.GateSignal(gi)
	conns := inc.Fanouts().Conns[out]
	newVolt := g.Volt + 1

	// Split consumers: gates above the target rail will hang off a level
	// converter; gates at or below it and POs stay directly connected.
	var highCap float64
	nHigh := 0
	dest := newVolt
	for _, cn := range conns {
		cg := ckt.Gates[cn.Gate]
		if cg.IsLC {
			return candidate{}, false // crossing fixed at insertion; hold the rail
		}
		if cg.Volt < newVolt {
			highCap += cg.Cell.InputCap[cn.Pin]
			nHigh++
			if cg.Volt < dest {
				dest = cg.Volt
			}
		}
	}
	var lc *cell.Cell
	oldLoad := inc.Load[out]
	newLoad := oldLoad
	lcLoad := 0.0
	if nHigh > 0 {
		lc = lib.LevelConverterFor(newVolt, dest)
		newLoad = oldLoad - highCap - float64(lib.WireCapPerFanout*float64(nHigh)) +
			lc.InputCap[0] + lib.WireCapPerFanout
		lcLoad = highCap + float64(lib.WireCapPerFanout*float64(nHigh))
	}

	// Timing: the gate's own arrival moves by deltaArr; paths through the
	// level converter additionally pay the converter's delay. Requiring the
	// gate's slack to cover both is conservative (the LC sits on a subset of
	// the fanout paths).
	deltaArr := inc.ArrivalWith(gi, g.Cell, newVolt, newLoad) - inc.Arrival[out]
	lcDelay := 0.0
	if nHigh > 0 {
		lcDelay = lc.MaxDelay(lcLoad, lib.Derate(dest))
	}

	// Power: exact local difference under unchanged activities (the level
	// converter is a buffer, so no activity changes anywhere).
	vh, vl := lib.VddOf(g.Volt), lib.VddOf(newVolt)
	a := act[out]
	before := power.Switch(a, fclk, oldLoad+g.Cell.InternalCap, vh)
	after := power.Switch(a, fclk, newLoad+g.Cell.InternalCap, vl)
	lcCost := 0.0
	if nHigh > 0 {
		lcCost = power.Switch(a, fclk, lcLoad+lc.InternalCap, lib.VddOf(dest)) + lib.LCStaticPowerFor(lc)
	}
	gain := before - after - lcCost
	return candidate{gate: gi, deltaArr: deltaArr, lcDelay: lcDelay, gain: gain, needLC: nHigh > 0}, true
}

// dscaleState is the incrementally maintained working set of one Dscale run.
// Everything in it is an exact function of the circuit plus the engine's
// annotation; the engine's journal (sta.Incremental.ChangedSince) tells it
// which gates to refresh, so each round touches only what the previous
// round's moves disturbed instead of rescanning every gate. verify() checks
// the whole invariant against a from-scratch rebuild under Options.SelfCheck.
type dscaleState struct {
	inc  *sta.Incremental
	ckt  *netlist.Circuit // inc.Circuit()
	lib  *cell.Library    // inc.Library()
	opts *Options

	// act is the per-signal switching activity, extended (aliased) as level
	// converters are inserted. Activities never change for existing signals.
	act []float64

	// Candidate cache: cand[gi] (guarded by candOK) is the last evaluated
	// candidate decision for gate gi; candValid marks entries whose inputs
	// have not changed since. candEvals counts real evaluations — the work a
	// full rescan pays live-gates×rounds of.
	candValid []bool
	candOK    []bool
	cand      []candidate
	candEvals int64

	// weight is the reusable MWIS node-weight buffer; weighted lists the
	// entries to zero next round.
	weight   []int64
	weighted []int

	// seen is the journal position absorb has read up to.
	seen sta.Mark

	// Scratch buffers (steady-state allocation-free).
	changed   []netlist.Signal
	absorbed  netlist.BitSet
	cands     []candidate
	coneSeen  netlist.BitSet
	covered   netlist.BitSet
	coneBuf   []int
	coneStack []int
	chosen    []int
	sorted    []candidate

	// Bypass state: the pending converter-fed (gate, pin) pairs and the live
	// converters of the current bypassRedundantLCs call.
	pairs []netlist.Conn
	lcs   []int
}

// newDscaleState builds the working set from the post-CVS circuit with every
// candidate invalidated (round one evaluates every gate, like the rescan loop
// did). CVS ran on the same engine and its changes are already reflected
// here, so absorb reads the journal from the current position on.
func newDscaleState(inc *sta.Incremental, opts *Options, act []float64) *dscaleState {
	st := &dscaleState{inc: inc, ckt: inc.Circuit(), lib: inc.Library(), opts: opts, act: act, seen: inc.Checkpoint()}
	st.grow()
	return st
}

// grow extends the per-gate tables after level-converter insertions.
func (st *dscaleState) grow() {
	n := len(st.ckt.Gates)
	for len(st.candValid) < n {
		st.candValid = append(st.candValid, false)
		st.candOK = append(st.candOK, false)
		st.cand = append(st.cand, candidate{})
		st.weight = append(st.weight, 0)
	}
}

// absorb reads the engine's journal since the last absorb and invalidates the
// candidate of every gate the changes can influence: the driver of each
// changed signal (its slack, load, consumer set or attributes moved) and the
// signal's consumers (their fanin arrivals moved). Each signal is absorbed
// once.
func (st *dscaleState) absorb() {
	st.changed = st.inc.ChangedSince(st.seen, st.changed[:0])
	st.seen = st.inc.Checkpoint()
	st.grow()
	st.absorbed.Grow(st.ckt.NumSignals())
	st.absorbed.Reset()
	fan := st.inc.Fanouts()
	for _, s := range st.changed {
		if st.absorbed.Has(int(s)) {
			continue
		}
		st.absorbed.Set(int(s))
		if gi := st.ckt.GateIndex(s); gi >= 0 {
			st.candValid[gi] = false
		}
		for _, cn := range fan.Conns[s] {
			st.candValid[cn.Gate] = false
		}
	}
}

// reeval recomputes gate gi's candidate decision, mirroring the filter chain
// of the original per-round rescan exactly: eligibility, fanout, SlkSet
// membership, positive gain, and the conservative timing check.
func (st *dscaleState) reeval(gi int) {
	st.candEvals++
	st.candValid[gi] = true
	st.candOK[gi] = false
	g := st.ckt.Gates[gi]
	if g.Dead || g.IsLC || g.Volt >= st.lib.Deepest() {
		return
	}
	out := st.ckt.GateSignal(gi)
	if st.inc.Fanouts().Degree(out) == 0 {
		return
	}
	if st.inc.Slack(out) <= slackEps {
		return // not in SlkSet
	}
	c, ok := evalCandidate(st.inc, st.act, st.opts.Fclk, gi)
	if !ok || c.gain <= 0 {
		return
	}
	if st.inc.Slack(out)-(c.deltaArr+c.lcDelay) < slackEps {
		return
	}
	st.cand[gi] = c
	st.candOK[gi] = true
}

// gather returns the round's candSet in gate order, re-evaluating only the
// invalidated cache entries.
func (st *dscaleState) gather() []candidate {
	st.cands = st.cands[:0]
	for gi := range st.ckt.Gates {
		if !st.candValid[gi] {
			st.reeval(gi)
		}
		if st.candOK[gi] {
			st.cands = append(st.cands, st.cand[gi])
		}
	}
	return st.cands
}

// verify cross-checks the candidate cache against a from-scratch evaluation
// — the dirty-set differential oracle, enabled by Options.SelfCheck. A valid
// cache entry must match a fresh evaluation bit for bit.
func (st *dscaleState) verify() error {
	ce := st.candEvals // oracle re-evaluations must not skew the metric
	defer func() { st.candEvals = ce }()
	for gi, g := range st.ckt.Gates {
		if !st.candValid[gi] {
			continue
		}
		wasOK, was := st.candOK[gi], st.cand[gi]
		st.reeval(gi)
		if wasOK != st.candOK[gi] || (wasOK && was != st.cand[gi]) {
			return fmt.Errorf("core: Dscale candidate cache stale at gate %d (%s): %+v/%v vs fresh %+v/%v",
				gi, g.Name, was, wasOK, st.cand[gi], st.candOK[gi])
		}
	}
	return nil
}

// dscaleFrom continues the paper's §2 algorithm from the CVS clustering Run
// performed: repeated rounds of slack harvesting. Each round gathers every
// high-voltage gate whose slack covers the Vlow (plus level-converter) delay
// penalty and whose net power gain is positive, selects a maximum-weight
// independent set of them on the circuit's transitive graph — so per-round
// penalties can never accumulate along one path — applies Vlow, inserts level
// converters at low→high boundaries, and re-times incrementally. It stops
// when candSet is empty.
//
// Candidates are maintained incrementally: a round re-evaluates only gates
// whose timing, load, consumer set or neighborhood changed since the last
// round (per the engine's journal), which drops per-round evaluation work
// from live-gates to the size of the disturbed region while producing the
// exact decisions of a full rescan.
//
// Dscale weights its candidates with Options.Activities (act, capped by
// Run): switching activities are a property of the logic alone, and the
// level converters inserted below are buffers whose output toggles exactly
// like their source, so their activities are aliased on insertion and the
// run needs no simulation. With KeepJournal set the caller's Checkpoint mark
// survives and one Rollback undoes the whole run.
func dscaleFrom(inc *sta.Incremental, opts *Options, act []float64, _ *CVSResult) (*Result, error) {
	st := newDscaleState(inc, opts, act)
	ckt := st.ckt
	res := &Result{}
	for {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		if opts.SelfCheck {
			if err := inc.Check(1e-9); err != nil {
				return nil, err
			}
			if err := st.verify(); err != nil {
				return nil, err
			}
		}

		// getSlkSet + check_timing + weight_with_power_gain, from the cache.
		cands := st.gather()
		if len(cands) == 0 {
			break
		}

		var lowSet []int
		if opts.GreedySelect {
			// Ablation: greedy highest-gain-first, restricted to a mutually
			// path-independent set so the per-candidate timing checks stay
			// valid (checked via reachability, no optimality guarantee).
			lowSet = st.greedyIndependent(cands)
		} else {
			// MWIS over the gate-level DAG: node weights are the power
			// gains, edges are the circuit's driver→consumer relation, so
			// independence means "no two selected gates on a common path".
			// The edges are the engine's consumer table, read in place:
			// gate gi's arcs are its output's consumers. Only the weights
			// are re-stamped.
			for _, gi := range st.weighted {
				st.weight[gi] = 0
			}
			st.weighted = st.weighted[:0]
			for _, c := range cands {
				// A gain is a share of the circuit's power, far below a watt,
				// so the scaled weight and the antichain's flow sums stay
				// orders of magnitude inside int64.
				w := int64(c.gain * weightScale)
				if w <= 0 {
					w = 1
				}
				st.weight[c.gate] = w
				st.weighted = append(st.weighted, c.gate)
			}
			succ := inc.Fanouts().Conns[ckt.NumPIs():]
			lowSet, _ = graph.MaxWeightAntichain(len(ckt.Gates), succ, consumerGate, st.weight)
		}
		if len(lowSet) == 0 {
			break
		}
		for _, gi := range lowSet {
			if err := st.applyLow(gi); err != nil {
				return nil, err
			}
			opts.emit(Event{Algorithm: "Dscale", Kind: EventMove, Round: res.Iterations + 1, Gate: gi})
		}
		st.bypassRedundantLCs()
		if !opts.KeepJournal {
			inc.Commit() // moves are final; cap journal growth
			st.seen = inc.Checkpoint()
		}
		res.Iterations++

		// update_timing plus a safety net: the per-candidate check is
		// conservative, so the constraint must still hold.
		if !inc.Meets(slackEps) {
			return nil, fmt.Errorf("core: Dscale violated timing (%.6f > %.6f)", inc.WorstArrival(), inc.Tspec())
		}
		if opts.Observer != nil {
			opts.emit(Event{
				Algorithm: "Dscale", Kind: EventRound, Round: res.Iterations,
				Moves: len(lowSet), LowGates: ckt.NumLowGates(),
				Power:    power.EstimateWithLoads(ckt, st.lib, st.act, inc.Load, opts.Fclk),
				STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
			})
		}
	}
	res.STAEvals = inc.Evals() - opts.evalsBase
	res.CandEvals = st.candEvals
	res.Act = st.act
	return res, nil
}

// consumerGate is the head of a consumer-table arc: the consuming gate.
func consumerGate(cn netlist.Conn) int { return cn.Gate }

// greedyIndependent picks candidates highest-gain-first (ties broken by gate
// index, so the order is total), discarding any that shares a path with an
// earlier pick. Conflict tracking uses reusable bitsets over the gate space
// instead of per-call maps. Used only by the GreedySelect ablation.
func (st *dscaleState) greedyIndependent(cands []candidate) []int {
	st.sorted = append(st.sorted[:0], cands...)
	slices.SortFunc(st.sorted, func(a, b candidate) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return a.gate - b.gate
	})
	n := len(st.ckt.Gates)
	st.covered.Grow(n)
	st.covered.Reset()
	st.coneSeen.Grow(n)
	st.chosen = st.chosen[:0]
	fan := st.inc.Fanouts()
	for _, c := range st.sorted {
		if st.covered.Has(c.gate) {
			continue // on a path below some chosen gate (or chosen itself)
		}
		st.coneSeen.Reset()
		st.coneBuf, st.coneStack = fan.AppendFanoutCone(st.ckt, c.gate, &st.coneSeen, st.coneBuf[:0], st.coneStack)
		conflict := false
		for _, g := range st.chosen {
			if st.coneSeen.Has(g) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		st.chosen = append(st.chosen, c.gate)
		for _, g := range st.coneBuf {
			st.covered.Set(g)
		}
	}
	out := append([]int(nil), st.chosen...)
	slices.Sort(out)
	return out
}

// applyLow demotes gate gi one rail step and inserts a level converter in
// front of the consumers left above the new rail ("insert necessary level
// restoration circuits"), re-timing incrementally through the engine. One
// converter per net is shared by all restored consumers; it carries the pair
// cell for the crossing and is powered at the highest restored consumer's
// rail. The activity table gains the converter's (aliased) activity, and the
// state absorbs the journal so the touched region is re-evaluated next round.
func (st *dscaleState) applyLow(gi int) error {
	ckt, lib, inc := st.ckt, st.lib, st.inc
	g := ckt.Gates[gi]
	if g.Volt >= lib.Deepest() {
		return fmt.Errorf("core: gate %s already at the deepest rail", g.Name)
	}
	newVolt := g.Volt + 1
	out := ckt.GateSignal(gi)
	var highConns []netlist.Conn
	dest := newVolt
	for _, cn := range inc.Fanouts().Conns[out] {
		if cg := ckt.Gates[cn.Gate]; cg.Volt < newVolt {
			highConns = append(highConns, cn)
			if cg.Volt < dest {
				dest = cg.Volt
			}
		}
	}
	inc.SetVolt(gi, newVolt)
	if len(highConns) == 0 {
		st.absorb()
		return nil
	}
	lcIdx, lcSig := inc.AddGate(fmt.Sprintf("$lc_%s", g.Name), lib.LevelConverterFor(newVolt, dest), out)
	lcGate := ckt.GateOf(lcSig)
	lcGate.IsLC = true
	if dest != cell.VHigh {
		inc.SetVolt(lcIdx, dest)
	}
	st.act = append(st.act, st.act[out]) // the converter toggles with its source
	for _, cn := range highConns {
		if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
			return err
		}
	}
	st.absorb()
	return nil
}

// bypassRedundantLCs reconnects low-voltage gates that are fed through a
// level converter directly to the converter's low-voltage source (a low gate
// needs no restored swing), then deletes converters with no remaining
// consumers. Each bypass is accepted only if the source net's slack absorbs
// its load change, so timing stays safe; the engine re-times each rewire in
// cone-local work.
//
// The converter-fed pins of live reduced-rail gates are collected once, in
// (gate, pin) order, together with the live converters. Each pass re-checks
// the pending pins in order and rewires the first that passes, then removes
// the converters left without consumers, in gate order, until a pass changes
// nothing. A pin's check reads only the live engine state, so every pass
// finds the lowest eligible pin; rewires only detach pins from converters,
// so no pin and no converter appears while the loop runs.
func (st *dscaleState) bypassRedundantLCs() {
	ckt, inc := st.ckt, st.inc
	fan := inc.Fanouts()
	st.pairs = st.pairs[:0]
	st.lcs = st.lcs[:0]
	for gi, g := range ckt.Gates {
		switch {
		case g.Dead:
		case g.IsLC:
			st.lcs = append(st.lcs, gi)
		case g.Volt != cell.VHigh:
			for pin, s := range g.In {
				if drv := ckt.GateOf(s); drv != nil && drv.IsLC && !drv.Dead {
					st.pairs = append(st.pairs, netlist.Conn{Gate: gi, Pin: pin})
				}
			}
		}
	}

	// Bounded fixpoint (each pass either retires a pin or a converter, or
	// terminates); the outer Dscale round loop polls opts.interrupted() every
	// iteration, so the one-iteration cancellation contract is kept there.
	//lint:ctx-ok bounded fixpoint; outer round loop polls interrupted()
	for {
		changed := false
		// One rewire per pass: loads moved, so the engine's fresh state must
		// back the next decision.
		for i, p := range st.pairs {
			if st.tryBypass(p.Gate, p.Pin) {
				st.pairs = slices.Delete(st.pairs, i, i+1)
				st.absorb()
				changed = true
				break
			}
		}
		for _, gi := range st.lcs {
			if !ckt.Gates[gi].Dead && fan.Degree(ckt.GateSignal(gi)) == 0 && inc.KillGate(gi) == nil {
				st.absorb()
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// tryBypass checks one pair's eligibility against the live annotation and
// applies the rewire when it passes. The checks mirror the original scan. A
// reduced-rail consumer can bypass its converter only when the converter's
// source sits at or above the consumer's own rail — the unrestored swing must
// still cover the consumer's supply (always true in the two-rail case, where
// both are VLow).
func (st *dscaleState) tryBypass(gIdx, pin int) bool {
	ckt, lib, inc := st.ckt, st.lib, st.inc
	g := ckt.Gates[gIdx]
	if g.Dead || g.Volt == cell.VHigh || g.IsLC {
		return false
	}
	drv := ckt.GateOf(g.In[pin])
	if drv == nil || !drv.IsLC || drv.Dead {
		return false
	}
	src := drv.In[0]
	srcGate := ckt.GateOf(src)
	if srcGate == nil {
		return false
	}
	if srcGate.Volt > g.Volt {
		return false // source swing below the consumer's rail; keep the converter
	}
	// Load change on the source net: it gains this consumer pin (the
	// converter stays until it loses every consumer).
	dLoad := g.Cell.InputCap[pin] + lib.WireCapPerFanout
	newArr := inc.ArrivalWith(ckt.GateIndex(src), srcGate.Cell, srcGate.Volt, inc.Load[src]+dLoad)
	if newArr-inc.Arrival[src] >= inc.Slack(src)-slackEps {
		return false
	}
	return inc.RewirePin(gIdx, pin, src) == nil
}
