// Package power implements the switching-power model of the paper's equation
// (1): P = a0→1 · fclk · Cload · Vdd², evaluated per gate with the gate's own
// supply voltage, plus the overheads of level-restoration circuitry. Combined
// with the random-vector activities from package sim it reproduces the
// "generic SIS power estimation function" used for Tables 1 and 2.
package power

import (
	"context"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// DefaultClock is the simulation clock frequency the paper uses (20 MHz).
const DefaultClock = 20e6

// Switch returns the switching power of one net: activity × clock × load ×
// Vdd². The conversion rounds the product, so no caller's sum fuses with it.
func Switch(act, fclk, loadPF, vdd float64) float64 {
	return float64(act * fclk * loadPF * 1e-12 * vdd * vdd)
}

// Estimate returns the total power of a circuit in watts from per-signal
// activities (as sim.Run returns them) at clock frequency fclk.
func Estimate(c *netlist.Circuit, lib *cell.Library, act []float64, fclk float64) float64 {
	return EstimateWithLoads(c, lib, act, sta.Loads(c, lib, c.BuildFanouts()), fclk)
}

// EstimateWithLoads is Estimate with the per-signal capacitive loads
// supplied, for a caller that already maintains them bit-identical to
// sta.Loads — an sta.Incremental's Load, say.
//
// The total is every live gate's output-net switching power and internal
// (equivalent-capacitance) power at its own rail, plus the standing power of
// level converters (the DC component of restoration circuitry that makes
// Dscale's gains "quite limited"). Primary-input nets are not charged: the
// environment driving the block pays for them, as in the SIS estimate. The
// three terms are summed over the gates in gate order and added as
// (switching + internal) + static; the total's bits depend on that order.
func EstimateWithLoads(c *netlist.Circuit, lib *cell.Library, act, load []float64, fclk float64) float64 {
	var switching, internal, static float64
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		switching += Switch(act[out], fclk, load[out], vdd)
		internal += Switch(act[out], fclk, g.Cell.InternalCap, vdd)
		if g.IsLC {
			static += lib.LCStaticPowerFor(g.Cell)
		}
	}
	return switching + internal + static
}

// EstimateRandom is the one-call flow the evaluation uses: simulate words×64
// random vectors with the given seed, then estimate power at fclk. It returns
// the total in watts and the activity table it was estimated from. A
// cancelled or expired ctx stops the simulation with ctx.Err().
func EstimateRandom(ctx context.Context, c *netlist.Circuit, lib *cell.Library, words int, seed uint64, fclk float64) (float64, []float64, error) {
	act, err := sim.Run(ctx, c, words, seed)
	if err != nil {
		return 0, nil, err
	}
	return Estimate(c, lib, act, fclk), act, nil
}
