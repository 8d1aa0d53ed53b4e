// Package logic represents technology-independent combinational logic the
// way SIS does: a DAG of single-output nodes, each defined by a
// sum-of-products cover over its fanins (the BLIF .names construct). This is
// the form the MCNC benchmarks arrive in and the input to technology mapping.
package logic

import (
	"fmt"
	"strings"
)

// Signal identifies a value: PIs come first (0..p-1), then node outputs
// (p+k for node k), matching the netlist package convention.
type Signal int

// None is the invalid signal.
const None Signal = -1

// Cube is one product term of a cover: a string over '0', '1', '-' with one
// position per fanin. '1' means the positive literal, '0' the negative
// literal, '-' absence.
type Cube string

// Node is one logic function: the OR of its cubes over its fanins. A node
// with no cubes is constant 0; a node with a single all-dash cube is
// constant 1.
type Node struct {
	// Name is the net name of the node output.
	Name string
	// Fanin lists the input signals, in cube-column order.
	Fanin []Signal
	// Cubes is the SOP cover.
	Cubes []Cube
	// Dead marks removed nodes (see Network.Sweep).
	Dead bool
}

// PO is a primary output reference.
type PO struct {
	Name string
	Src  Signal
}

// Network is a combinational logic network.
type Network struct {
	// Name is the design name.
	Name string
	// PIs are the primary input names.
	PIs []string
	// Nodes holds every node; entries may be Dead.
	Nodes []*Node
	// POs are the primary outputs.
	POs []PO
}

// New creates an empty network.
func New(name string) *Network { return &Network{Name: name} }

// NumSignals returns the signal space size.
func (n *Network) NumSignals() int { return len(n.PIs) + len(n.Nodes) }

// IsPI reports whether s is a primary input.
func (n *Network) IsPI(s Signal) bool { return s >= 0 && int(s) < len(n.PIs) }

// NodeIndex returns the node index of s, or -1 for PIs.
func (n *Network) NodeIndex(s Signal) int {
	if int(s) < len(n.PIs) || int(s) >= n.NumSignals() {
		return -1
	}
	return int(s) - len(n.PIs)
}

// NodeOf returns the node driving s, or nil for PIs.
func (n *Network) NodeOf(s Signal) *Node {
	i := n.NodeIndex(s)
	if i < 0 {
		return nil
	}
	return n.Nodes[i]
}

// NodeSignal returns the output signal of node k.
func (n *Network) NodeSignal(k int) Signal { return Signal(len(n.PIs) + k) }

// SignalName names a signal after its PI or driving node.
func (n *Network) SignalName(s Signal) string {
	if n.IsPI(s) {
		return n.PIs[s]
	}
	if nd := n.NodeOf(s); nd != nil {
		return nd.Name
	}
	return fmt.Sprintf("<sig%d>", int(s))
}

// AddPI appends a primary input; must precede all AddNode calls.
func (n *Network) AddPI(name string) Signal {
	if len(n.Nodes) > 0 {
		panic("logic: AddPI after AddNode would renumber node signals")
	}
	n.PIs = append(n.PIs, name)
	return Signal(len(n.PIs) - 1)
}

// AddNode appends a node and returns its output signal.
func (n *Network) AddNode(name string, fanin []Signal, cubes []Cube) Signal {
	nd := &Node{Name: name, Fanin: append([]Signal(nil), fanin...), Cubes: append([]Cube(nil), cubes...)}
	n.Nodes = append(n.Nodes, nd)
	return n.NodeSignal(len(n.Nodes) - 1)
}

// AddPO appends a primary output.
func (n *Network) AddPO(name string, src Signal) {
	n.POs = append(n.POs, PO{Name: name, Src: src})
}

// NumLiveNodes counts nodes not marked Dead.
func (n *Network) NumLiveNodes() int {
	c := 0
	for _, nd := range n.Nodes {
		if !nd.Dead {
			c++
		}
	}
	return c
}

// TopoOrder returns live node indices in topological order, or an error on a
// combinational cycle.
func (n *Network) TopoOrder() ([]int, error) {
	nPI := len(n.PIs)
	indeg := make([]int, len(n.Nodes))
	fan := make([][]int, len(n.Nodes))
	live := 0
	for k, nd := range n.Nodes {
		if nd.Dead {
			continue
		}
		live++
		for _, s := range nd.Fanin {
			if s < 0 || int(s) >= n.NumSignals() {
				return nil, fmt.Errorf("logic: node %s has invalid fanin %d", nd.Name, s)
			}
			if int(s) >= nPI {
				di := int(s) - nPI
				if n.Nodes[di].Dead {
					return nil, fmt.Errorf("logic: node %s driven by dead node %s", nd.Name, n.Nodes[di].Name)
				}
				fan[di] = append(fan[di], k)
				indeg[k]++
			}
		}
	}
	order := make([]int, 0, live)
	for k, nd := range n.Nodes {
		if !nd.Dead && indeg[k] == 0 {
			order = append(order, k)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, consumer := range fan[order[i]] {
			indeg[consumer]--
			if indeg[consumer] == 0 {
				order = append(order, consumer)
			}
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("logic: network %s has a combinational cycle", n.Name)
	}
	return order, nil
}

// Validate checks structural sanity: cube widths match fanin counts, cube
// characters are legal, signals are in range, the DAG is acyclic.
func (n *Network) Validate() error {
	for _, nd := range n.Nodes {
		if nd.Dead {
			continue
		}
		for _, c := range nd.Cubes {
			if len(c) != len(nd.Fanin) {
				return fmt.Errorf("logic: node %s cube %q width %d != fanin count %d",
					nd.Name, c, len(c), len(nd.Fanin))
			}
			for _, ch := range c {
				if ch != '0' && ch != '1' && ch != '-' {
					return fmt.Errorf("logic: node %s cube %q has illegal character %q", nd.Name, c, ch)
				}
			}
		}
	}
	for _, po := range n.POs {
		if po.Src < 0 || int(po.Src) >= n.NumSignals() {
			return fmt.Errorf("logic: PO %s driven by invalid signal %d", po.Name, po.Src)
		}
	}
	_, err := n.TopoOrder()
	return err
}

// EvalCube evaluates one cube over 64 parallel patterns.
func EvalCube(c Cube, in []uint64) uint64 {
	out := ^uint64(0)
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case '1':
			out &= in[i]
		case '0':
			out &= ^in[i]
		}
	}
	return out
}

// EvalNode evaluates the node's SOP over 64 parallel patterns given its
// fanin words.
func (nd *Node) EvalNode(in []uint64) uint64 {
	var out uint64
	for _, c := range nd.Cubes {
		out |= EvalCube(c, in)
	}
	return out
}

// IsConst reports whether the node is a constant, and which.
func (nd *Node) IsConst() (isConst bool, value bool) {
	if len(nd.Cubes) == 0 {
		return true, false
	}
	for _, c := range nd.Cubes {
		if strings.Trim(string(c), "-") == "" {
			return true, true
		}
	}
	return false, false
}

// Eval simulates the network over bit-parallel input words. piWords[i] is the
// 64-pattern word of PI i. It returns one word per PO and, if wantAll, the
// word of every signal.
func (n *Network) Eval(piWords []uint64, wantAll bool) (poWords []uint64, all []uint64, err error) {
	if len(piWords) != len(n.PIs) {
		return nil, nil, fmt.Errorf("logic: Eval got %d PI words for %d PIs", len(piWords), len(n.PIs))
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	vals := make([]uint64, n.NumSignals())
	copy(vals, piWords)
	scratch := make([]uint64, 8)
	for _, k := range order {
		nd := n.Nodes[k]
		if cap(scratch) < len(nd.Fanin) {
			scratch = make([]uint64, len(nd.Fanin))
		}
		in := scratch[:len(nd.Fanin)]
		for i, s := range nd.Fanin {
			in[i] = vals[s]
		}
		vals[n.NodeSignal(k)] = nd.EvalNode(in)
	}
	poWords = make([]uint64, len(n.POs))
	for i, po := range n.POs {
		poWords[i] = vals[po.Src]
	}
	if wantAll {
		all = vals
	}
	return poWords, all, nil
}

// Clone deep-copies the network.
func (n *Network) Clone() *Network {
	nn := &Network{
		Name: n.Name,
		PIs:  append([]string(nil), n.PIs...),
		POs:  append([]PO(nil), n.POs...),
	}
	nn.Nodes = make([]*Node, len(n.Nodes))
	for i, nd := range n.Nodes {
		c := *nd
		c.Fanin = append([]Signal(nil), nd.Fanin...)
		c.Cubes = append([]Cube(nil), nd.Cubes...)
		nn.Nodes[i] = &c
	}
	return nn
}
