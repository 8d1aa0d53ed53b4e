package mapper

import (
	"fmt"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

const (
	// nominalLoad (pF) is the load assumed during covering, before real
	// fanout loads are known.
	nominalLoad = 0.004
	// timingEps is the timing comparison tolerance of area recovery (ns).
	timingEps = 1e-9
)

// Result is a mapped design ready for the voltage-scaling algorithms.
type Result struct {
	// Circuit is the mapped netlist (all gates at Vhigh).
	Circuit *netlist.Circuit
	// MinDelay is the critical path of the pure minimum-delay mapping.
	MinDelay float64
	// Tspec is the timing constraint handed to the scaling algorithms: the
	// critical-path delay of the relaxed, area-recovered mapping itself
	// (at most slackFactor × MinDelay), following the paper's setup.
	Tspec float64
}

// Map lowers a logic network onto the library in two steps, the paper's two
// map runs: a minimum-delay cover, then area recovery that downsizes gates
// while the circuit meets slackFactor × the minimum delay. The paper uses
// slackFactor 1.2 ("we loosen the timing constraint by 20%"). The input is
// cloned and swept first, so callers keep their network intact.
func Map(n *logic.Network, lib *cell.Library, slackFactor float64) (*Result, error) {
	if slackFactor < 1 {
		return nil, fmt.Errorf("mapper: SlackFactor %.3f must be >= 1", slackFactor)
	}
	ckt, minDelay, err := minDelayCover(n, lib)
	if err != nil {
		return nil, err
	}
	// The paper processes each circuit "using the delay of the mapped
	// circuit as the timing constraint": the constraint is the relaxed,
	// area-recovered netlist's own critical path, so critical paths start
	// with exactly zero slack. (This is why perfectly balanced circuits —
	// C499, C1355, mux, z4ml — gain nothing from CVS in Table 1: they have
	// no non-critical part until Gscale manufactures one.)
	tspec, err := RecoverArea(ckt, lib, minDelay*slackFactor, timingEps)
	if err != nil {
		return nil, err
	}
	return &Result{Circuit: ckt, MinDelay: minDelay, Tspec: tspec}, nil
}

// minDelayCover covers a clone of n for minimum delay and returns the mapped
// netlist with its critical-path delay.
func minDelayCover(n *logic.Network, lib *cell.Library) (*netlist.Circuit, float64, error) {
	work := n.Clone()
	work.Sweep()
	if err := work.Validate(); err != nil {
		return nil, 0, err
	}
	sub, err := buildSubject(work)
	if err != nil {
		return nil, 0, err
	}
	// Reachable subject nodes and fanout counts, from the PO roots.
	nodes := len(sub.ctx.nodes)
	var outs []*sgNode
	boundary := make([]bool, nodes)
	for _, po := range work.POs {
		if root := sub.rootOf[po.Src]; root != nil {
			outs = append(outs, root)
			boundary[root.id] = true
		}
	}
	order := sub.ctx.countFanouts(outs)
	cs := &coverState{
		lib:        lib,
		nominal:    nominalLoad,
		isBoundary: boundary,
		best:       make([]matchRec, nodes),
	}
	if err := cs.cover(order); err != nil {
		return nil, 0, err
	}
	ckt, err := cs.emit(work, sub)
	if err != nil {
		return nil, 0, err
	}
	minDelay, err := sta.MinDelay(ckt, lib)
	if err != nil {
		return nil, 0, err
	}
	return ckt, minDelay, nil
}

// RecoverArea repeatedly downsizes gates while the circuit still meets tspec,
// consuming the loosened timing budget for area exactly like the paper's
// second map run ("so that the SIS mapper can perform area-delay tradeoff
// using the 20% timing slack"). Downsizing a gate slows only the gate itself
// (its output load is unchanged and its input pins shrink, which can only
// help its drivers), so a local slack check is safe. The checks read one
// incremental timing engine, each settled as far as its reads need, so every
// decision is the one a fresh full analysis after every accepted downsize
// would make. RecoverArea returns the recovered circuit's worst PO arrival.
func RecoverArea(ckt *netlist.Circuit, lib *cell.Library, tspec, eps float64) (float64, error) {
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		return 0, err
	}
	recoverOn(inc, eps)
	if !inc.Meets(eps) {
		return 0, fmt.Errorf("mapper: area recovery broke timing (%.4f > %.4f)", inc.WorstArrival(), tspec)
	}
	return inc.WorstArrival(), nil
}

// recoverOn runs RecoverArea's passes on an engine. Each pass is one reverse
// sweep: it visits gates in decreasing priority, so a gate's what-if needs
// only SettleAt, and the waves a downsize queues settle once, at the pass's
// end.
func recoverOn(inc *sta.Incremental, eps float64) {
	ckt, lib := inc.Circuit(), inc.Library()
	// Downsizing changes no structure, so the order stays Analyze's.
	order := inc.Order()
	for pass := 0; pass < 16; pass++ {
		changed := 0
		inc.BeginSweep()
		for i := len(order) - 1; i >= 0; i-- {
			gi := order[i]
			g := ckt.Gates[gi]
			smaller := lib.Downsize(g.Cell)
			if smaller == nil {
				continue
			}
			inc.SettleAt(gi)
			out := ckt.GateSignal(gi)
			delta := inc.ArrivalWith(gi, smaller, g.Volt, inc.Load[out]) - inc.Arrival[out]
			if delta <= inc.Slack(out)-eps {
				inc.SetCell(gi, smaller)
				inc.Commit() // area recovery never rolls back
				changed++
			}
		}
		inc.EndSweep()
		if changed == 0 {
			break
		}
	}
}
