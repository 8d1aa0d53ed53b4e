package power

import (
	"context"
	"math"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

var lib = cell.Compass06()

func invPair() *netlist.Circuit {
	c := netlist.New("p")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("g1", inv, a)
	_, s2 := c.AddGate("g2", inv, s1)
	c.AddPO("o", s2)
	return c
}

func TestSwitchFormula(t *testing.T) {
	// P = a · f · C · V²: 0.25 × 20 MHz × 10 fF × 25 V² = 1.25 µW.
	got := Switch(0.25, 20e6, 0.010, 5.0)
	if math.Abs(got-1.25e-6) > 1e-12 {
		t.Fatalf("Switch = %g, want 1.25e-6", got)
	}
}

// filled is an activity table of n signals, every one at a.
func filled(n int, a float64) []float64 {
	act := make([]float64, n)
	for i := range act {
		act[i] = a
	}
	return act
}

// share is what the total loses when gate gi's output activity is zeroed:
// the gate's own switching and internal power.
func share(c *netlist.Circuit, act []float64, gi int) float64 {
	zeroed := append([]float64(nil), act...)
	zeroed[c.GateSignal(gi)] = 0
	return Estimate(c, lib, act, 20e6) - Estimate(c, lib, zeroed, 20e6)
}

func TestEstimateQuadraticVoltageSaving(t *testing.T) {
	c := invPair()
	act := filled(c.NumSignals(), 0.25)
	high := Estimate(c, lib, act, 20e6)
	c.Gates[0].Volt = cell.VLow
	c.Gates[1].Volt = cell.VLow
	low := Estimate(c, lib, act, 20e6)
	wantRatio := lib.PowerRatio()
	if gotRatio := low / high; math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Fatalf("all-low power ratio = %.4f, want (Vlow/Vhigh)^2 = %.4f", gotRatio, wantRatio)
	}
}

// converterPair is invPair with a level converter between its two gates and
// the first gate lowered.
func converterPair() (c *netlist.Circuit, lc int) {
	c = invPair()
	lcCell := lib.LevelConverter()
	gi, lcSig := c.AddGate("lc", lcCell, c.GateSignal(0))
	c.Gates[gi].IsLC = true
	c.Gates[1].In[0] = lcSig
	c.Gates[0].Volt = cell.VLow
	return c, gi
}

func TestEstimateChargesLCStatic(t *testing.T) {
	c, lc := converterPair()
	// With nothing switching, the converter's standing power is the total.
	if got := Estimate(c, lib, make([]float64, c.NumSignals()), 20e6); got != lib.LCStaticPower {
		t.Fatalf("idle total = %g, want the converter's static %g", got, lib.LCStaticPower)
	}
	// Switching, the converter also pays for its own output net.
	if got := share(c, filled(c.NumSignals(), 0.2), lc); got <= 0 {
		t.Fatalf("converter's switching share = %g, want > 0", got)
	}
}

// TestGateShareIsItsSwitchingAndInternalPower: zeroing one gate's output
// activity removes exactly that gate's two equation (1) terms, at its own
// rail and its output net's load.
func TestGateShareIsItsSwitchingAndInternalPower(t *testing.T) {
	c, _ := converterPair()
	act := filled(c.NumSignals(), 0.3)
	loads := sta.Loads(c, lib, c.BuildFanouts())
	for gi, g := range c.Gates {
		out := c.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		want := Switch(act[out], 20e6, loads[out], vdd) + Switch(act[out], 20e6, g.Cell.InternalCap, vdd)
		if got := share(c, act, gi); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("gate %s: share %g, want %g", g.Name, got, want)
		}
	}
}

// TestEstimateIgnoresInputNetActivity pins the rule that the environment
// pays for the primary-input nets: changing only their activities leaves the
// total bit-identical.
func TestEstimateIgnoresInputNetActivity(t *testing.T) {
	c, _ := converterPair()
	act := filled(c.NumSignals(), 0.25)
	want := Estimate(c, lib, act, 20e6)
	for pi := 0; pi < c.NumPIs(); pi++ {
		act[pi] = 0.5
	}
	if got := Estimate(c, lib, act, 20e6); got != want {
		t.Fatalf("PI activities moved the total: %v, want %v", got, want)
	}
}

func TestEstimateSkipsDeadGates(t *testing.T) {
	c := invPair()
	act := filled(c.NumSignals(), 0.25)
	full := Estimate(c, lib, act, 20e6)
	c.Gates[1].Dead = true
	c.POs[0].Src = c.GateSignal(0)
	partial := Estimate(c, lib, act, 20e6)
	if partial >= full {
		t.Fatalf("dead gate still billed: %g vs %g", partial, full)
	}
	if share(c, act, 1) != 0 {
		t.Fatal("dead gate's activity moved the total")
	}
}

func TestEstimateRandomEndToEnd(t *testing.T) {
	c := invPair()
	total, act, err := EstimateRandom(context.Background(), c, lib, 64, 1, DefaultClock)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("total power %g", total)
	}
	if len(act) != c.NumSignals() {
		t.Fatalf("activity table has %d entries for %d signals", len(act), c.NumSignals())
	}
	if want := Estimate(c, lib, act, DefaultClock); total != want {
		t.Fatalf("EstimateRandom total %v, Estimate over its own table %v", total, want)
	}
}

func TestLoweringOneGateSavesExactlyItsShare(t *testing.T) {
	c := invPair()
	act := filled(c.NumSignals(), 0.3)
	before := Estimate(c, lib, act, 20e6)
	wantSaved := share(c, act, 0) * (1 - lib.PowerRatio())
	c.Gates[0].Volt = cell.VLow
	after := Estimate(c, lib, act, 20e6)
	if saved := before - after; math.Abs(saved-wantSaved) > 1e-15 {
		t.Fatalf("saved %g, want %g (gate 0's quadratic share)", saved, wantSaved)
	}
}
