// Package mapper is the technology mapper standing in for SIS's "map"
// command in the paper's flow. It lowers a technology-independent SOP network
// onto the dual-voltage cell library in two steps that mirror the paper's
// setup: a minimum-delay covering ("map -n1 -AFG" with zero required time),
// and an area-recovery pass run against a timing constraint loosened by 20%,
// so that the mapped circuit's critical path sits at the constraint — the
// exact starting condition CVS, Dscale and Gscale assume.
//
// The covering itself is classic DAGON-style tree covering: the network is
// decomposed into a NAND2/inverter subject graph (with structural hashing),
// the graph is split into trees at multi-fanout points, cell patterns are
// themselves NAND2/inverter trees, and dynamic programming picks the best
// match per subject node.
package mapper

import (
	"fmt"

	"dualvdd/internal/logic"
)

// sgKind is the subject-graph node kind.
type sgKind uint8

const (
	sgLeaf sgKind = iota // reference to a primary input (or pattern variable)
	sgNAND
	sgINV
)

// sgNode is a node of the NAND2/INV subject graph. Nodes are hash-consed
// within a context, so structurally equal subexpressions are shared and the
// graph is a leaf-DAG.
type sgNode struct {
	id   int
	kind sgKind
	// fan holds the children: fan[0] for INV, fan[0] and fan[1] for NAND.
	fan [2]*sgNode
	// leaf is the PI signal index for subject leaves, or the variable (pin)
	// index for pattern leaves.
	leaf int
	// nfo is the consumer count among nodes reachable from the outputs.
	nfo int
}

// sgCtx is a hash-consing context for subject or pattern construction.
// nodes is indexed by sgNode.id and leaves by leaf reference; byKey, the
// structural hash, is the mapper's only per-node map.
type sgCtx struct {
	nodes       []*sgNode
	byKey       map[[3]int]*sgNode
	leaves      []*sgNode
	lits, terms []*sgNode // sopToSg's buffers
}

func newSgCtx() *sgCtx {
	return &sgCtx{byKey: make(map[[3]int]*sgNode)}
}

func (c *sgCtx) mkLeaf(ref int) *sgNode {
	if ref < len(c.leaves) && c.leaves[ref] != nil {
		return c.leaves[ref]
	}
	n := &sgNode{id: len(c.nodes), kind: sgLeaf, leaf: ref}
	c.nodes = append(c.nodes, n)
	for len(c.leaves) <= ref {
		c.leaves = append(c.leaves, nil)
	}
	c.leaves[ref] = n
	return n
}

func (c *sgCtx) mkINV(x *sgNode) *sgNode {
	// Double inversions cancel structurally.
	if x.kind == sgINV {
		return x.fan[0]
	}
	key := [3]int{int(sgINV), x.id, -1}
	if n, ok := c.byKey[key]; ok {
		return n
	}
	n := &sgNode{id: len(c.nodes), kind: sgINV, fan: [2]*sgNode{x, nil}}
	c.nodes = append(c.nodes, n)
	c.byKey[key] = n
	return n
}

func (c *sgCtx) mkNAND(x, y *sgNode) *sgNode {
	// Canonical child order keeps hashing deterministic and match-friendly.
	if y.id < x.id {
		x, y = y, x
	}
	key := [3]int{int(sgNAND), x.id, y.id}
	if n, ok := c.byKey[key]; ok {
		return n
	}
	n := &sgNode{id: len(c.nodes), kind: sgNAND, fan: [2]*sgNode{x, y}}
	c.nodes = append(c.nodes, n)
	c.byKey[key] = n
	return n
}

func (c *sgCtx) mkAND(x, y *sgNode) *sgNode { return c.mkINV(c.mkNAND(x, y)) }
func (c *sgCtx) mkOR(x, y *sgNode) *sgNode  { return c.mkNAND(c.mkINV(x), c.mkINV(y)) }

// balancedAnd folds a literal list into a balanced AND tree; balancedOr does
// the same for OR. Using the same shapes for subject and pattern construction
// is what makes the patterns match.
func (c *sgCtx) balancedAnd(xs []*sgNode) *sgNode {
	switch len(xs) {
	case 0:
		panic("mapper: empty AND")
	case 1:
		return xs[0]
	}
	mid := (len(xs) + 1) / 2
	return c.mkAND(c.balancedAnd(xs[:mid]), c.balancedAnd(xs[mid:]))
}

func (c *sgCtx) balancedOr(xs []*sgNode) *sgNode {
	switch len(xs) {
	case 0:
		panic("mapper: empty OR")
	case 1:
		return xs[0]
	}
	mid := (len(xs) + 1) / 2
	return c.mkOR(c.balancedOr(xs[:mid]), c.balancedOr(xs[mid:]))
}

// sopToSg lowers an SOP cover to the subject graph, with inputs given as
// existing subject nodes. Returns nil for constant covers (handled upstream).
// The literal and term lists reuse the context's buffers.
func (c *sgCtx) sopToSg(cubes []logic.Cube, inputs []*sgNode) *sgNode {
	c.terms = c.terms[:0]
	for _, cube := range cubes {
		c.lits = c.lits[:0]
		for i := 0; i < len(cube); i++ {
			switch cube[i] {
			case '1':
				c.lits = append(c.lits, inputs[i])
			case '0':
				c.lits = append(c.lits, c.mkINV(inputs[i]))
			}
		}
		if len(c.lits) == 0 {
			return nil // tautological cube: constant 1
		}
		c.terms = append(c.terms, c.balancedAnd(c.lits))
	}
	if len(c.terms) == 0 {
		return nil // empty cover: constant 0
	}
	return c.balancedOr(c.terms)
}

// subject is the fully built subject graph of a network. Its tables are
// indexed by logic signal or by sgNode.id.
type subject struct {
	ctx *sgCtx
	// rootOf maps each live logic signal to its subject node; PIs map to
	// leaves. Constant signals have none and are recorded in constOf.
	rootOf []*sgNode
	// constOf records signals that turned out constant: 1 plus the
	// constant's value, or 0 for a signal that is not constant.
	constOf []uint8
	// nameOf names subject nodes that correspond to logic-node outputs, so
	// mapped gates keep recognisable net names. Nodes past its end, and
	// nodes no logic node names, have "".
	nameOf []string
}

// constant reports whether signal sig turned out constant, and its value.
func (s *subject) constant(sig logic.Signal) (v, ok bool) {
	c := s.constOf[sig]
	return c == 2, c != 0
}

// buildSubject lowers an entire (swept, validated) network into one shared
// subject graph whose only leaves are primary inputs. Node outputs are not
// forced to remain explicit: single-fanout logic crosses node boundaries and
// can be absorbed into one cell, giving the mapper a global view.
func buildSubject(n *logic.Network) (*subject, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &subject{
		ctx:     newSgCtx(),
		rootOf:  make([]*sgNode, n.NumSignals()),
		constOf: make([]uint8, n.NumSignals()),
	}
	named := make([]bool, 0, n.NumSignals())
	for pi := 0; pi < len(n.PIs); pi++ {
		s.rootOf[pi] = s.ctx.mkLeaf(pi)
	}
	var inputs []*sgNode
	for _, k := range order {
		nd := n.Nodes[k]
		out := n.NodeSignal(k)
		if isC, v := nd.IsConst(); isC {
			s.constOf[out] = constCode(v)
			continue
		}
		inputs = inputs[:0]
		for _, f := range nd.Fanin {
			if _, isC := s.constant(f); isC {
				return nil, fmt.Errorf("mapper: node %s has constant fanins; run Sweep before mapping", nd.Name)
			}
			inputs = append(inputs, s.rootOf[f])
		}
		root := s.ctx.sopToSg(nd.Cubes, inputs)
		if root == nil {
			// The cover simplified to a constant despite IsConst saying
			// otherwise (e.g. tautological cube mix).
			s.constOf[out] = constCode(len(nd.Cubes) > 0)
			continue
		}
		s.rootOf[out] = root
		for len(named) <= root.id {
			named = append(named, false)
			s.nameOf = append(s.nameOf, "")
		}
		if !named[root.id] {
			named[root.id] = true
			s.nameOf[root.id] = nd.Name
		}
	}
	return s, nil
}

// constCode is constOf's entry for a constant of value v.
func constCode(v bool) uint8 {
	if v {
		return 2
	}
	return 1
}

// countFanouts walks the subject graph from the given output nodes and fills
// in consumer counts. Returns the set of reachable nodes in topological
// order (children before parents).
func (c *sgCtx) countFanouts(outs []*sgNode) []*sgNode {
	seen := make([]bool, len(c.nodes))
	order := make([]*sgNode, 0, len(c.nodes))
	var visit func(n *sgNode)
	visit = func(n *sgNode) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		switch n.kind {
		case sgNAND:
			visit(n.fan[0])
			visit(n.fan[1])
			n.fan[0].nfo++
			n.fan[1].nfo++
		case sgINV:
			visit(n.fan[0])
			n.fan[0].nfo++
		}
		order = append(order, n)
	}
	for _, o := range outs {
		visit(o)
	}
	return order
}
