package mapper

import (
	"fmt"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
)

// matchRec is the best cover found for one subject node. A leaf's record is
// the zero value: no cell, arrival 0 and no area.
type matchRec struct {
	cl   *cell.Cell
	bind [cell.MaxInputs]*sgNode // subject node feeding each cell pin
	arr  float64                 // estimated arrival under the nominal-load delay model
	area float64                 // estimated subtree area (shared leaves overcounted)
}

// coverState carries the DP tables across matching and emission. Both are
// indexed by sgNode.id.
type coverState struct {
	lib     *cell.Library
	nominal float64
	// isBoundary marks subject nodes that must remain explicit nets: nodes
	// with more than one consumer and primary-output sources. Patterns may
	// not swallow them as internal nodes.
	isBoundary []bool
	best       []matchRec
}

// matchPattern attempts to match pattern node p against subject node s while
// binding pattern variables consistently. trail records bound variables for
// rollback. root is the subject node the whole pattern is rooted at; interior
// pattern nodes may only consume non-boundary, single-fanout subject nodes.
func (cs *coverState) matchPattern(p, s, root *sgNode, bind []*sgNode, trail *[]int) bool {
	if p.kind == sgLeaf {
		v := p.leaf
		if bind[v] == nil {
			bind[v] = s
			*trail = append(*trail, v)
			return true
		}
		return bind[v] == s
	}
	if s.kind != p.kind {
		return false
	}
	if s != root && (cs.isBoundary[s.id] || s.nfo != 1) {
		return false
	}
	if p.kind == sgINV {
		return cs.matchPattern(p.fan[0], s.fan[0], root, bind, trail)
	}
	// NAND: try both child orders, rolling back bindings between attempts.
	mark := len(*trail)
	if cs.matchPattern(p.fan[0], s.fan[0], root, bind, trail) &&
		cs.matchPattern(p.fan[1], s.fan[1], root, bind, trail) {
		return true
	}
	for _, v := range (*trail)[mark:] {
		bind[v] = nil
	}
	*trail = (*trail)[:mark]
	if cs.matchPattern(p.fan[0], s.fan[1], root, bind, trail) &&
		cs.matchPattern(p.fan[1], s.fan[0], root, bind, trail) {
		return true
	}
	for _, v := range (*trail)[mark:] {
		bind[v] = nil
	}
	*trail = (*trail)[:mark]
	return false
}

// cover runs the covering DP over the subject nodes in topological order
// (children first, as produced by countFanouts). Minimum estimated arrival
// wins; area breaks ties — the "-n1 -AFG" minimum-delay regime. Each
// pattern's cells are looked up once per call, not once per node; the
// patterns themselves are shared read-only by concurrent calls.
func (cs *coverState) cover(order []*sgNode) error {
	const eps = 1e-9
	pats := patterns()
	cells := make([][]*cell.Cell, len(pats))
	maxVars := 0
	for i, pat := range pats {
		cells[i] = cs.lib.CellsOf(pat.fn)
		maxVars = max(maxVars, pat.numVars)
	}
	bind := make([]*sgNode, maxVars)
	var trail []int
	for _, n := range order {
		if n.kind == sgLeaf {
			continue
		}
		best := &cs.best[n.id]
		for i, pat := range pats {
			if pat.root.kind != n.kind || len(cells[i]) == 0 {
				continue
			}
			// A failed match leaves bind and trail as it found them.
			bind := bind[:pat.numVars]
			if !cs.matchPattern(pat.root, n, n, bind, &trail) {
				continue
			}
			for _, cl := range cells[i] {
				arr, area := 0.0, cl.Area
				feasible := true
				for pin, leaf := range bind {
					if leaf == nil {
						feasible = false
						break
					}
					// Every leaf is a descendant of n, so its record is final.
					lr := &cs.best[leaf.id]
					if a := lr.arr + cl.Delay(pin, cs.nominal, 1.0); a > arr {
						arr = a
					}
					area += lr.area
				}
				if !feasible {
					continue
				}
				if best.cl == nil || arr < best.arr-eps ||
					(arr < best.arr+eps && area < best.area-eps) {
					best.cl, best.arr, best.area = cl, arr, area
					copy(best.bind[:], bind)
				}
			}
			for _, v := range trail {
				bind[v] = nil
			}
			trail = trail[:0]
		}
		if best.cl == nil {
			return fmt.Errorf("mapper: no pattern matches subject node %d (kind %d)", n.id, n.kind)
		}
	}
	return nil
}

// emit lowers the chosen covers into a mapped netlist.
func (cs *coverState) emit(n *logic.Network, sub *subject) (*netlist.Circuit, error) {
	ckt := netlist.New(n.Name)
	sigOf := make([]netlist.Signal, len(sub.ctx.nodes))
	for i := range sigOf {
		sigOf[i] = netlist.None
	}
	for pi := 0; pi < len(n.PIs); pi++ {
		s := ckt.AddPI(n.PIs[pi])
		sigOf[sub.ctx.mkLeaf(pi).id] = s
	}
	used := make(map[string]bool)
	for _, pi := range n.PIs {
		used[pi] = true
	}
	uniqueName := func(want string) string {
		if want != "" && !used[want] {
			used[want] = true
			return want
		}
		for i := 0; ; i++ {
			cand := fmt.Sprintf("%s$u%d", want, i)
			if !used[cand] {
				used[cand] = true
				return cand
			}
		}
	}

	var emitNode func(sg *sgNode) (netlist.Signal, error)
	emitNode = func(sg *sgNode) (netlist.Signal, error) {
		if s := sigOf[sg.id]; s != netlist.None {
			return s, nil
		}
		rec := &cs.best[sg.id]
		if rec.cl == nil {
			return netlist.None, fmt.Errorf("mapper: emitting uncovered subject node %d", sg.id)
		}
		var ins [cell.MaxInputs]netlist.Signal
		for pin, leaf := range rec.bind[:rec.cl.NumInputs()] {
			s, err := emitNode(leaf)
			if err != nil {
				return netlist.None, err
			}
			ins[pin] = s
		}
		name := ""
		if sg.id < len(sub.nameOf) {
			name = sub.nameOf[sg.id]
		}
		if name == "" {
			name = fmt.Sprintf("$m%d", sg.id)
		}
		_, out := ckt.AddGate(uniqueName(name), rec.cl, ins[:rec.cl.NumInputs()]...)
		sigOf[sg.id] = out
		return out, nil
	}

	// Tie gates for constant PO signals, shared per constant value.
	var tieSig [2]netlist.Signal
	tieSig[0], tieSig[1] = netlist.None, netlist.None
	tie := func(v bool) (netlist.Signal, error) {
		idx := 0
		fn := cell.FTIE0
		if v {
			idx, fn = 1, cell.FTIE1
		}
		if tieSig[idx] != netlist.None {
			return tieSig[idx], nil
		}
		cl := cs.lib.Smallest(fn)
		if cl == nil {
			return netlist.None, fmt.Errorf("mapper: library %s lacks tie cell %s", cs.lib.Name, fn)
		}
		_, out := ckt.AddGate(uniqueName(fmt.Sprintf("$tie%d", idx)), cl)
		tieSig[idx] = out
		return out, nil
	}

	for _, po := range n.POs {
		src := po.Src
		if v, isConst := sub.constant(src); isConst {
			s, err := tie(v)
			if err != nil {
				return nil, err
			}
			ckt.AddPO(po.Name, s)
			continue
		}
		root := sub.rootOf[src]
		if root == nil {
			return nil, fmt.Errorf("mapper: PO %s has no subject root", po.Name)
		}
		s, err := emitNode(root)
		if err != nil {
			return nil, err
		}
		ckt.AddPO(po.Name, s)
	}
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: emitted netlist invalid: %w", err)
	}
	return ckt, nil
}
