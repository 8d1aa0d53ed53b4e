package core

import (
	"fmt"
	"slices"

	"dualvdd/internal/cell"
	"dualvdd/internal/graph"
	"dualvdd/internal/sta"
)

// critEps is the tolerance for calling a fanin edge "critical" when tracing
// the critical path network.
const critEps = 1e-7

// getCPN enters the critical path network feeding the TCB into weight, all
// zero on entry, at graph.Inf (the weight of a gate that cannot be resized):
// every gate on a path that determines the arrival time at some TCB node
// (paper §3's get_CPN, via static timing analysis). TCB gates themselves are
// included — up-sizing the boundary gate is often exactly what lets it take
// Vlow.
func getCPN(inc *sta.Incremental, tcb []int, weight []int64) {
	ckt := inc.Circuit()
	stack := append([]int(nil), tcb...)
	for _, gi := range tcb {
		weight[gi] = graph.Inf
	}
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := ckt.GateSignal(gi)
		for pin, s := range ckt.Gates[gi].In {
			if ckt.IsPI(s) {
				continue
			}
			if inc.PinArrival(gi, pin) < inc.Arrival[out]-critEps {
				continue // this fanin does not set the arrival
			}
			di := ckt.GateIndex(s)
			if di < 0 || weight[di] != 0 {
				continue
			}
			weight[di] = graph.Inf
			stack = append(stack, di)
		}
	}
}

// sizingGain estimates the timing benefit of up-sizing gate gi to the next
// cell size: the gate's own delay reduction minus the worst slowdown its
// larger input pins inflict on its drivers (weight_with_area_versus_time_gain
// needs the *net* gain or the separator would pick counterproductive moves).
// Returns the candidate cell, the net gain in ns and the area penalty, or
// ok=false when the gate has no larger size or up-sizing does not pay.
func sizingGain(inc *sta.Incremental, gi int) (up *cell.Cell, gain, dArea float64, ok bool) {
	ckt, lib := inc.Circuit(), inc.Library()
	g := ckt.Gates[gi]
	up = lib.Upsize(g.Cell)
	if up == nil {
		return nil, 0, 0, false
	}
	out := ckt.GateSignal(gi)
	selfGain := inc.Arrival[out] - inc.ArrivalWith(gi, up, g.Volt, inc.Load[out])
	worstDriverPenalty := 0.0
	for pin, s := range g.In {
		di := ckt.GateIndex(s)
		if di < 0 {
			continue // PI: the environment absorbs the extra pin load
		}
		drv := ckt.Gates[di]
		dLoad := up.InputCap[pin] - g.Cell.InputCap[pin]
		penalty := drv.Cell.Drive * dLoad * lib.Derate(drv.Volt)
		if penalty > worstDriverPenalty {
			worstDriverPenalty = penalty
		}
	}
	gain = selfGain - worstDriverPenalty
	if gain <= 0 {
		return nil, 0, 0, false
	}
	return up, gain, up.Area - g.Cell.Area, true
}

// sizingWeight is an up-sizable gate's separator weight: its area penalty per
// ns of net gain, scaled to an integer of at least 1. A vanishing gain can
// push the ratio past int64's range, where the conversion is
// implementation-defined (MinInt64 on amd64, which the floor of 1 would turn
// into the cheapest gate); such a gate saturates at graph.Inf instead, as
// good as unsizable.
func sizingWeight(dArea, gain float64) int64 {
	if r := dArea / gain * 1e6; r < float64(graph.Inf) {
		return max(int64(r), 1)
	}
	return graph.Inf
}

// gscaleFrom continues the paper's §3 algorithm from the CVS clustering Run
// performed, which sets the initial low cluster and TCB: each iteration
// speeds up the paths into the time-critical boundary by up-sizing a
// minimum-weight separator of the critical path network (weights are
// area-penalty over timing-gain; the paper computes the max-flow/min-cut with
// Edmonds–Karp, graph.MinVertexCut with Dinic's algorithm, which finds the
// same cut), re-times incrementally, and re-runs CVS to push the TCB toward
// the primary inputs. Batches are applied transactionally: a cut that
// misses the constraint is rolled back through the engine's journal instead
// of being unwound by hand. The loop stops when the area budget is exhausted
// or after MaxIter consecutive pushes that leave the TCB unchanged. No level
// converters are needed: the low gates always form one cluster.
//
// The area budget is a fraction of the circuit's area at entry, which is the
// input circuit's: the CVS clustering before it moves only rails.
//
// Gscale's final safety check is the engine's own Meets: the engine is
// bit-identical to a fresh full analysis by contract, and the differential
// suite holds it to that. With KeepJournal set the caller's Checkpoint mark
// survives and one Rollback undoes the whole run.
func gscaleFrom(inc *sta.Incremental, opts *Options, act []float64, cvs *CVSResult) (*Result, error) {
	ckt, lib := inc.Circuit(), inc.Library()
	maxArea := float64(ckt.Area() * (1 + opts.MaxAreaIncrease))
	tcb := cvs.TCB
	// A gate's cell changes only through accepted SetCells (a rejected cut
	// is rolled back), so the gates whose cell differs at the end from this
	// snapshot are the ones Gscale resized.
	entryCell := make([]*cell.Cell, len(ckt.Gates))
	for gi, g := range ckt.Gates {
		entryCell[gi] = g.Cell
	}
	// The round's separator problem, indexed by gate and cleared each round
	// (Gscale adds no gates): weight is nonzero exactly on the critical path
	// network, ups holds each member's larger cell (nil where the member
	// cannot be resized) and exit marks the TCB. The arcs are the engine's
	// consumer table, read in place.
	weight := make([]int64, len(ckt.Gates))
	ups := make([]*cell.Cell, len(ckt.Gates))
	exit := make([]bool, len(ckt.Gates))
	res := &Result{}
	counter := 0
	for counter <= opts.MaxIter && len(tcb) > 0 {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		// The circuit does not change until the cut is applied, so one sum
		// serves the round's area checks up to then. A running total would
		// add the cells in a different order and could move the last bit
		// that area+dArea > maxArea compares.
		area := ckt.Area()
		if area >= maxArea-1e-12 {
			break // no further area increase is allowed
		}
		if err := selfCheck(inc, opts); err != nil {
			return nil, err
		}
		clear(weight)
		clear(exit)
		getCPN(inc, tcb, weight)
		for gi, w := range weight {
			if w == 0 {
				continue
			}
			up, gain, dArea, ok := sizingGain(inc, gi)
			if !ok || area+dArea > maxArea {
				ups[gi] = nil // the member keeps weight Inf
				continue
			}
			ups[gi], weight[gi] = up, sizingWeight(dArea, gain)
		}
		for _, gi := range tcb {
			exit[gi] = true // getCPN enters every TCB gate
		}

		var (
			cut       []int
			cutWeight int64
			feasible  bool
		)
		if opts.GreedySizing {
			// Ablation: up-size only the single best ratio gate. Unlike the
			// separator, this speeds up one critical path at a time.
			best, bestW := -1, graph.Inf
			for gi, w := range weight {
				if w > 0 && w < bestW {
					best, bestW = gi, w
				}
			}
			if best >= 0 {
				cut, cutWeight, feasible = []int{best}, bestW, true
			}
		} else {
			succ := inc.Fanouts().Conns[ckt.NumPIs():]
			cut, cutWeight, feasible = graph.MinVertexCut(len(ckt.Gates), succ, consumerGate, weight, exit)
		}
		resized := 0
		if feasible && cutWeight < graph.Inf {
			// Apply the whole cut at once: the separator property means every
			// critical path is sped up by exactly one member, and the members
			// jointly absorb the driver-load penalties they inflict on each
			// other's sibling paths. (Applying one at a time would let a
			// shared driver's slowdown hit a sibling path before that path's
			// own cut member has compensated — a spurious violation.)
			mark := inc.Checkpoint()
			var applied []int
			for _, gi := range cut {
				up := ups[gi]
				if up == nil {
					continue
				}
				g := ckt.Gates[gi]
				if ckt.Area()+up.Area-g.Cell.Area > maxArea {
					continue // resize only if area increase is allowed
				}
				inc.SetCell(gi, up)
				applied = append(applied, gi)
			}
			if len(applied) > 0 {
				if inc.Meets(slackEps) {
					resized = len(applied)
				} else {
					// Conservative gain estimates failed this batch (e.g. a
					// driver shared by many cut members): roll the whole
					// batch back and try a greedy one-by-one fallback so
					// progress is still made.
					inc.Rollback(mark)
					for _, gi := range applied {
						g := ckt.Gates[gi]
						next := lib.Upsize(g.Cell)
						if next == nil || ckt.Area()+next.Area-g.Cell.Area > maxArea {
							continue
						}
						one := inc.Checkpoint()
						inc.SetCell(gi, next)
						if !inc.Meets(slackEps) {
							inc.Rollback(one)
							continue
						}
						resized++
					}
				}
			}
		}
		res.Iterations++

		// update_timing + push the TCB with another CVS run.
		if !opts.KeepJournal {
			inc.Commit()
		}
		pushed, err := cvsOn(inc, opts, "Gscale", res.Iterations)
		if err != nil {
			return nil, err
		}
		tcbNew := pushed.TCB
		if resized == 0 || slices.Equal(tcbNew, tcb) {
			counter++
		} else {
			counter = 0
		}
		tcb = tcbNew
		if opts.Observer != nil {
			opts.emit(Event{
				Algorithm: "Gscale", Kind: EventRound, Round: res.Iterations,
				Moves: resized, LowGates: ckt.NumLowGates(),
				STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
			})
		}
		if resized == 0 && !feasible {
			break // sizing can make no further difference
		}
	}
	// Safety: Gscale must never violate the constraint.
	if !inc.Meets(slackEps) {
		return nil, fmt.Errorf("core: Gscale violated timing (%.6f > %.6f)", inc.WorstArrival(), inc.Tspec())
	}
	for gi, orig := range entryCell {
		if ckt.Gates[gi].Cell != orig {
			res.Sized++
		}
	}
	res.TCB = tcb
	res.STAEvals = inc.Evals() - opts.evalsBase
	res.Act = act
	return res, nil
}
