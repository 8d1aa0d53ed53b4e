// Package power implements the switching-power model of the paper's equation
// (1): P = a0→1 · fclk · Cload · Vdd², evaluated per gate with the gate's own
// supply voltage, plus the overheads of level-restoration circuitry. Combined
// with the random-vector activities from package sim it reproduces the
// "generic SIS power estimation function" used for Tables 1 and 2.
package power

import (
	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// DefaultClock is the simulation clock frequency the paper uses (20 MHz).
const DefaultClock = 20e6

// Breakdown is a power estimate with its components, all in watts.
type Breakdown struct {
	// Total = Switching + Internal + LCStatic. InputNets is reported
	// separately and excluded: charging the primary-input nets is paid by
	// the environment driving the block, as in the SIS estimate.
	Total float64
	// Switching is the output-net charging power of all gates.
	Switching float64
	// Internal is the internal (equivalent-capacitance) power of all gates.
	Internal float64
	// LCStatic is the standing power of level converters (the DC component
	// of restoration circuitry that makes Dscale's gains "quite limited").
	LCStatic float64
	// InputNets is the power the environment spends charging primary-input
	// nets; it grows when sizing enlarges input pins.
	InputNets float64
	// PerGate is the attributable power per gate index (switching+internal,
	// plus static for LCs).
	PerGate []float64
}

// Switch returns the switching power of one net: activity × clock × load ×
// Vdd². The conversion rounds the product, so no caller's sum fuses with it.
func Switch(act, fclk, loadPF, vdd float64) float64 {
	return float64(act * fclk * loadPF * 1e-12 * vdd * vdd)
}

// Estimate computes the power breakdown of a circuit from per-signal
// activities (as produced by sim.Run) at clock frequency fclk.
func Estimate(c *netlist.Circuit, lib *cell.Library, act []float64, fclk float64) *Breakdown {
	return EstimateWithLoads(c, lib, act, sta.Loads(c, lib, c.BuildFanouts()), fclk)
}

// EstimateWithLoads is Estimate with the per-signal capacitive loads
// supplied, for a caller that already maintains them bit-identical to
// sta.Loads — an sta.Incremental's Load, say.
func EstimateWithLoads(c *netlist.Circuit, lib *cell.Library, act, load []float64, fclk float64) *Breakdown {
	b := &Breakdown{PerGate: make([]float64, len(c.Gates))}
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		sw := Switch(act[out], fclk, load[out], vdd)
		in := Switch(act[out], fclk, g.Cell.InternalCap, vdd)
		p := sw + in
		b.Switching += sw
		b.Internal += in
		if g.IsLC {
			lcp := lib.LCStaticPowerFor(g.Cell)
			b.LCStatic += lcp
			p += lcp
		}
		b.PerGate[gi] = p
	}
	for pi := 0; pi < c.NumPIs(); pi++ {
		b.InputNets += Switch(act[pi], fclk, load[pi], lib.VddOf(cell.VHigh))
	}
	b.Total = b.Switching + b.Internal + b.LCStatic
	return b
}

// EstimateRandom is the one-call flow the evaluation uses: simulate words×64
// random vectors with the given seed, then estimate power at fclk. The
// simulation runs on the compiled engine with the default worker count.
func EstimateRandom(c *netlist.Circuit, lib *cell.Library, words int, seed uint64, fclk float64) (*Breakdown, *sim.Result, error) {
	r, err := sim.Run(c, words, seed)
	if err != nil {
		return nil, nil, err
	}
	return Estimate(c, lib, r.Act, fclk), r, nil
}
