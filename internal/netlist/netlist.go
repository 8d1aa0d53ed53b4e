// Package netlist represents technology-mapped combinational circuits: a DAG
// of library-cell instances between primary inputs and primary outputs. It is
// the object every later stage of the flow operates on — static timing,
// power estimation, and the paper's CVS / Dscale / Gscale voltage-scaling
// algorithms, which mutate per-gate supply levels, insert level converters,
// and resize cells in place.
package netlist

import (
	"fmt"

	"dualvdd/internal/cell"
)

// Signal identifies a value in the circuit: either a primary input or the
// output of a gate. Signals of a circuit with p primary inputs are numbered
// 0..p-1 for the PIs and p+g for the output of gate g.
type Signal int

// None is the invalid signal.
const None Signal = -1

// Gate is one cell instance. Gates are addressed by their index in
// Circuit.Gates; deleting a gate marks it Dead rather than renumbering, so
// Signal values stay stable across structural edits.
type Gate struct {
	// Name is the instance name (unique among live gates).
	Name string
	// Cell is the bound library cell. Resizing replaces this pointer.
	Cell *cell.Cell
	// In holds the driving signal of each input pin, one per cell pin.
	In []Signal
	// Volt is the supply rail of the instance. Freshly mapped circuits are
	// entirely VHigh; the scaling algorithms move gates to VLow.
	Volt cell.VoltLevel
	// IsLC marks level-converter instances inserted by Dscale at low→high
	// driving boundaries. Level converters are always powered at VHigh.
	IsLC bool
	// Dead marks deleted gates. Dead gates are ignored by every traversal.
	Dead bool
}

// PO is a primary output: a named reference to a signal.
type PO struct {
	Name string
	Src  Signal
}

// Circuit is a mapped combinational circuit.
type Circuit struct {
	// Name is the design name (the BLIF .model name).
	Name string
	// PIs are the primary input names, in declaration order.
	PIs []string
	// Gates holds every gate ever added; entries may be Dead.
	Gates []*Gate
	// POs are the primary outputs.
	POs []PO
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// NumSignals returns the size of the signal space (PIs plus all gate slots,
// including dead ones).
func (c *Circuit) NumSignals() int { return len(c.PIs) + len(c.Gates) }

// NumPIs returns the number of primary inputs.
func (c *Circuit) NumPIs() int { return len(c.PIs) }

// IsPI reports whether s is a primary input signal.
func (c *Circuit) IsPI(s Signal) bool { return s >= 0 && int(s) < len(c.PIs) }

// GateIndex returns the gate index of a gate-output signal, or -1 for PIs
// and invalid signals.
func (c *Circuit) GateIndex(s Signal) int {
	if int(s) < len(c.PIs) || int(s) >= c.NumSignals() {
		return -1
	}
	return int(s) - len(c.PIs)
}

// GateOf returns the gate driving s, or nil if s is a PI.
func (c *Circuit) GateOf(s Signal) *Gate {
	gi := c.GateIndex(s)
	if gi < 0 {
		return nil
	}
	return c.Gates[gi]
}

// GateSignal returns the output signal of gate gi.
func (c *Circuit) GateSignal(gi int) Signal { return Signal(len(c.PIs) + gi) }

// SignalName returns a human-readable name for a signal: the PI name or the
// driving gate's instance name.
func (c *Circuit) SignalName(s Signal) string {
	if c.IsPI(s) {
		return c.PIs[s]
	}
	if g := c.GateOf(s); g != nil {
		return g.Name
	}
	return fmt.Sprintf("<sig%d>", int(s))
}

// AddPI appends a primary input and returns its signal. It must be called
// before any gates are added (the signal numbering places PIs first).
func (c *Circuit) AddPI(name string) Signal {
	if len(c.Gates) > 0 {
		panic("netlist: AddPI after AddGate would renumber gate signals")
	}
	c.PIs = append(c.PIs, name)
	return Signal(len(c.PIs) - 1)
}

// AddGate appends a gate bound to cl with the given fanin signals and returns
// the gate index and its output signal.
func (c *Circuit) AddGate(name string, cl *cell.Cell, in ...Signal) (int, Signal) {
	g := &Gate{Name: name, Cell: cl, In: append([]Signal(nil), in...)}
	c.Gates = append(c.Gates, g)
	gi := len(c.Gates) - 1
	return gi, c.GateSignal(gi)
}

// AddPO appends a primary output fed by src.
func (c *Circuit) AddPO(name string, src Signal) {
	c.POs = append(c.POs, PO{Name: name, Src: src})
}

// NumLiveGates counts gates that are not Dead.
func (c *Circuit) NumLiveGates() int {
	n := 0
	for _, g := range c.Gates {
		if !g.Dead {
			n++
		}
	}
	return n
}

// NumLCs counts live level converters.
func (c *Circuit) NumLCs() int {
	n := 0
	for _, g := range c.Gates {
		if !g.Dead && g.IsLC {
			n++
		}
	}
	return n
}

// NumLowGates counts live ordinary gates powered below the nominal rail
// (level converters never qualify: in the two-rail case they always sit at
// VHigh, and in the multi-rail case they are restoration circuitry, not
// scaled logic).
func (c *Circuit) NumLowGates() int {
	n := 0
	for _, g := range c.Gates {
		if !g.Dead && !g.IsLC && g.Volt != cell.VHigh {
			n++
		}
	}
	return n
}

// RailGateCounts counts live ordinary (non-LC) gates per rail over an n-rail
// table; entry i is the number of gates powered at rail i.
func (c *Circuit) RailGateCounts(n int) []int {
	counts := make([]int, n)
	for _, g := range c.Gates {
		if !g.Dead && !g.IsLC && int(g.Volt) < n {
			counts[g.Volt]++
		}
	}
	return counts
}

// LCCrossingCounts counts live level converters per rail crossing over an
// n-rail table: entry [from][to] is the number of converters restoring a
// rail-from swing for rail-to consumers (from is the converter's source
// driver's rail, to the converter's own supply).
func (c *Circuit) LCCrossingCounts(n int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for _, g := range c.Gates {
		if g.Dead || !g.IsLC || len(g.In) == 0 {
			continue
		}
		drv := c.GateOf(g.In[0])
		if drv == nil {
			continue
		}
		if int(drv.Volt) < n && int(g.Volt) < n {
			m[drv.Volt][g.Volt]++
		}
	}
	return m
}

// Area returns the summed cell area of live gates.
func (c *Circuit) Area() float64 {
	a := 0.0
	for _, g := range c.Gates {
		if !g.Dead {
			a += g.Cell.Area
		}
	}
	return a
}

// Clone returns a deep copy of the circuit. Library cells are shared (they
// are immutable); gates, pins and POs are copied.
func (c *Circuit) Clone() *Circuit {
	nc := &Circuit{
		Name:  c.Name,
		PIs:   append([]string(nil), c.PIs...),
		Gates: make([]*Gate, len(c.Gates)),
		POs:   append([]PO(nil), c.POs...),
	}
	for i, g := range c.Gates {
		ng := *g
		ng.In = append([]Signal(nil), g.In...)
		nc.Gates[i] = &ng
	}
	return nc
}

// TopoOrder returns the indices of live gates in topological order (fanins
// before fanouts). It fails if the circuit contains a combinational cycle or
// a reference to a dead or out-of-range signal.
func (c *Circuit) TopoOrder() ([]int, error) {
	nPI := len(c.PIs)
	indeg := make([]int, len(c.Gates))
	nfan := make([]int, len(c.Gates)) // driver gate -> number of consumer pins
	live := 0
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		live++
		for _, s := range g.In {
			if s < 0 || int(s) >= c.NumSignals() {
				return nil, fmt.Errorf("netlist: gate %s pin driven by invalid signal %d", g.Name, s)
			}
			if int(s) < nPI {
				continue
			}
			di := int(s) - nPI
			if c.Gates[di].Dead {
				return nil, fmt.Errorf("netlist: gate %s driven by dead gate %s", g.Name, c.Gates[di].Name)
			}
			nfan[di]++
			indeg[gi]++
		}
	}
	fan := carve[int](nfan) // driver gate -> consumer gates
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		for _, s := range g.In {
			if di := int(s) - nPI; di >= 0 {
				fan[di] = append(fan[di], gi)
			}
		}
	}
	order := make([]int, 0, live)
	queue := make([]int, 0, live)
	for gi, g := range c.Gates {
		if !g.Dead && indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, consumer := range fan[gi] {
			indeg[consumer]--
			if indeg[consumer] == 0 {
				queue = append(queue, consumer)
			}
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("netlist: circuit %s has a combinational cycle (%d of %d gates ordered)",
			c.Name, len(order), live)
	}
	return order, nil
}

// Conn is one consumer connection of a signal: input pin Pin of gate Gate.
type Conn struct {
	Gate int
	Pin  int
}

// Fanouts is the consumer table of a circuit: for every signal, the gate pins
// and primary outputs it drives. It is a snapshot; rebuild after structural
// edits.
type Fanouts struct {
	// Conns[s] lists gate-pin consumers of signal s.
	Conns [][]Conn
	// POs[s] counts the primary outputs fed by signal s.
	POs []int
}

// BuildFanouts computes the consumer table for the current circuit structure,
// considering live gates only. The consumer lists are carved out of one
// backing array (see carve), so Connect's append moves a grown list out
// instead of writing into its neighbour's.
func (c *Circuit) BuildFanouts() *Fanouts {
	nconn := make([]int, c.NumSignals())
	f := &Fanouts{POs: make([]int, c.NumSignals())}
	for _, g := range c.Gates {
		if !g.Dead {
			for _, s := range g.In {
				nconn[s]++
			}
		}
	}
	for _, po := range c.POs {
		f.POs[po.Src]++
	}
	f.Conns = carve[Conn](nconn)
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		for pin, s := range g.In {
			f.Conns[s] = append(f.Conns[s], Conn{Gate: gi, Pin: pin})
		}
	}
	return f
}

// carve returns one empty list per count, each with room for its count,
// all carved out of one backing array. A list's capacity ends where its
// neighbour's room begins, so an append past it reallocates; a zero count
// gets a nil list.
func carve[T any](counts []int) [][]T {
	total := 0
	for _, k := range counts {
		total += k
	}
	lists, back := make([][]T, len(counts)), make([]T, total)
	off := 0
	for i, k := range counts {
		if k > 0 {
			lists[i] = back[off : off : off+k]
			off += k
		}
	}
	return lists
}

// Degree returns the total number of consumers (gate pins plus POs) of s.
func (f *Fanouts) Degree(s Signal) int {
	return len(f.Conns[s]) + f.POs[s]
}

// Grow extends the table to cover a signal space of n signals, after gates
// have been appended to the circuit.
func (f *Fanouts) Grow(n int) {
	for len(f.Conns) < n {
		f.Conns = append(f.Conns, nil)
	}
	for len(f.POs) < n {
		f.POs = append(f.POs, 0)
	}
}

// Shrink truncates the table to n signals, undoing a Grow after the gates
// that backed it were removed.
func (f *Fanouts) Shrink(n int) {
	f.Conns = f.Conns[:n]
	f.POs = f.POs[:n]
}

// Connect records consumer cn of signal s. The consumer list is kept sorted
// by (gate, pin) — the order BuildFanouts produces — so a table maintained
// incrementally stays element-for-element identical to a fresh build, which
// keeps float summations over it (capacitive loads) bit-exact.
func (f *Fanouts) Connect(s Signal, cn Conn) {
	conns := f.Conns[s]
	i := len(conns)
	for i > 0 && connLess(cn, conns[i-1]) {
		i--
	}
	conns = append(conns, Conn{})
	copy(conns[i+1:], conns[i:])
	conns[i] = cn
	f.Conns[s] = conns
}

// Disconnect removes consumer cn of signal s, preserving the order of the
// remaining consumers. Missing connections are ignored.
func (f *Fanouts) Disconnect(s Signal, cn Conn) {
	conns := f.Conns[s]
	for i, c := range conns {
		if c == cn {
			f.Conns[s] = append(conns[:i], conns[i+1:]...)
			return
		}
	}
}

func connLess(a, b Conn) bool {
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	return a.Pin < b.Pin
}

// Validate checks structural sanity: pin counts match cells, signals are in
// range and alive, the DAG is acyclic, every PO source is alive, and live
// gate names are unique.
func (c *Circuit) Validate() error {
	names := make(map[string]bool, len(c.Gates))
	for _, g := range c.Gates {
		if g.Dead {
			continue
		}
		if g.Cell == nil {
			return fmt.Errorf("netlist: gate %s has no cell", g.Name)
		}
		if len(g.In) != g.Cell.NumInputs() {
			return fmt.Errorf("netlist: gate %s has %d pins for %d-input cell %s",
				g.Name, len(g.In), g.Cell.NumInputs(), g.Cell.Name)
		}
		if names[g.Name] {
			return fmt.Errorf("netlist: duplicate gate name %s", g.Name)
		}
		names[g.Name] = true
	}
	for _, po := range c.POs {
		if po.Src < 0 || int(po.Src) >= c.NumSignals() {
			return fmt.Errorf("netlist: PO %s driven by invalid signal %d", po.Name, po.Src)
		}
		if g := c.GateOf(po.Src); g != nil && g.Dead {
			return fmt.Errorf("netlist: PO %s driven by dead gate %s", po.Name, g.Name)
		}
	}
	_, err := c.TopoOrder()
	return err
}
