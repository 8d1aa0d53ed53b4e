package blif

import (
	"fmt"
	"io"
	"strings"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// ParseCircuit reads a mapped BLIF model (.gate form) into a
// netlist.Circuit, resolving cell names against lib (its rail-pair level
// converters included). The non-standard ".volt <gate> <level>" directive
// restores per-gate supply assignments; the level is "high", "low" or a rail
// index of lib.
func ParseCircuit(r io.Reader, lib *cell.Library) (*netlist.Circuit, error) {
	stmts, err := lex(r)
	if err != nil {
		return nil, err
	}
	m, err := parseModel(stmts)
	if err != nil {
		return nil, err
	}
	if len(m.names) > 0 {
		return nil, fmt.Errorf("blif: model %s is unmapped (.names form); use ParseNetwork", m.name)
	}
	ckt := netlist.New(m.name)
	sig := make(map[string]netlist.Signal)
	for _, in := range m.inputs {
		if _, dup := sig[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %s", in)
		}
		sig[in] = ckt.AddPI(in)
	}

	// First pass: create gates keyed by output net so forward refs resolve.
	type pendGate struct {
		gb  gateBlock
		cl  *cell.Cell
		out string
		gi  int
	}
	var pend []pendGate
	for _, gb := range m.gates {
		cl, ok := lib.CellByName(gb.cellName)
		if !ok {
			return nil, fmt.Errorf("blif: line %d: cell %s not in library %s", gb.line, gb.cellName, lib.Name)
		}
		out, ok := gb.pins["O"]
		if !ok {
			return nil, fmt.Errorf("blif: line %d: gate %s has no output binding O=", gb.line, gb.cellName)
		}
		if _, dup := sig[out]; dup {
			return nil, fmt.Errorf("blif: line %d: net %s driven twice", gb.line, out)
		}
		gi, s := ckt.AddGate(out, cl, make([]netlist.Signal, cl.NumInputs())...)
		sig[out] = s
		pend = append(pend, pendGate{gb: gb, cl: cl, out: out, gi: gi})
	}

	// Second pass: bind input pins.
	for _, p := range pend {
		g := ckt.Gates[p.gi]
		for pin := 0; pin < p.cl.NumInputs(); pin++ {
			formal := cell.PinName(pin)
			actual, ok := p.gb.pins[formal]
			if !ok {
				return nil, fmt.Errorf("blif: line %d: gate %s missing pin %s", p.gb.line, p.out, formal)
			}
			s, ok := sig[actual]
			if !ok {
				return nil, fmt.Errorf("blif: line %d: gate %s pin %s bound to undefined net %s",
					p.gb.line, p.out, formal, actual)
			}
			g.In[pin] = s
		}
		if len(p.gb.pins) != p.cl.NumInputs()+1 {
			return nil, fmt.Errorf("blif: line %d: gate %s has %d bindings for %d pins",
				p.gb.line, p.out, len(p.gb.pins), p.cl.NumInputs()+1)
		}
		if p.cl.Function == cell.FLCONV {
			g.IsLC = true
		}
	}

	for _, out := range m.outputs {
		s, ok := sig[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %s is never driven", out)
		}
		ckt.AddPO(out, s)
	}
	for _, vb := range m.volts {
		s, ok := sig[vb.gate]
		if !ok {
			return nil, fmt.Errorf("blif: .volt names unknown gate %s", vb.gate)
		}
		g := ckt.GateOf(s)
		if g == nil {
			return nil, fmt.Errorf("blif: .volt names primary input %s", vb.gate)
		}
		if vb.rail >= len(lib.Rails()) {
			return nil, fmt.Errorf("blif: line %d: .volt rail %d is beyond library %s's %d rails",
				vb.line, vb.rail, lib.Name, len(lib.Rails()))
		}
		g.Volt = cell.VoltLevel(vb.rail)
	}
	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	return ckt, nil
}

// WriteCircuit emits a mapped circuit as .gate-form BLIF with ".volt"
// extension directives for gates below the nominal rail: "low" for rail 1,
// the rail index for deeper rails. Dead gates are skipped.
//
// BLIF's .gate form has no net-rename construct, so a primary output whose
// name differs from its driving net is handled by renaming that net to the
// output name when unambiguous, and otherwise by emitting a BUF_d0 stage
// (present in the default library).
func WriteCircuit(w io.Writer, c *netlist.Circuit) error {
	bw := &errWriter{w: w}
	bw.printf(".model %s\n", c.Name)
	writeNameList(bw, ".inputs", c.PIs)
	poNames := make([]string, len(c.POs))
	for i, po := range c.POs {
		poNames[i] = po.Name
	}
	writeNameList(bw, ".outputs", poNames)
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}

	// Net naming: default to PI / gate names, then claim PO names for
	// singly-referenced gate nets when no collision arises.
	taken := make(map[string]bool, len(c.PIs)+len(c.Gates))
	for _, pi := range c.PIs {
		taken[pi] = true
	}
	for _, gi := range order {
		taken[c.Gates[gi].Name] = true
	}
	rename := make(map[int]string)
	for _, po := range c.POs {
		gi := c.GateIndex(po.Src)
		if gi < 0 || c.Gates[gi].Name == po.Name {
			continue
		}
		if _, already := rename[gi]; already || taken[po.Name] {
			continue
		}
		rename[gi] = po.Name
		taken[po.Name] = true
	}
	netName := func(s netlist.Signal) string {
		if gi := c.GateIndex(s); gi >= 0 {
			if nn, ok := rename[gi]; ok {
				return nn
			}
		}
		return c.SignalName(s)
	}

	for _, gi := range order {
		g := c.Gates[gi]
		parts := make([]string, 0, len(g.In)+1)
		for pin, s := range g.In {
			parts = append(parts, fmt.Sprintf("%s=%s", cell.PinName(pin), netName(s)))
		}
		parts = append(parts, fmt.Sprintf("O=%s", netName(c.GateSignal(gi))))
		bw.printf(".gate %s %s\n", g.Cell.Name, strings.Join(parts, " "))
	}
	// Remaining aliases (PI-fed POs, several POs on one net): buffer stages.
	for _, po := range c.POs {
		if netName(po.Src) != po.Name {
			bw.printf(".gate BUF_d0 A=%s O=%s\n", netName(po.Src), po.Name)
		}
	}
	for _, gi := range order {
		switch v := c.Gates[gi].Volt; {
		case v == cell.VLow:
			bw.printf(".volt %s low\n", netName(c.GateSignal(gi)))
		case v > cell.VLow:
			bw.printf(".volt %s %d\n", netName(c.GateSignal(gi)), int(v))
		}
	}
	bw.printf(".end\n")
	return bw.err
}
