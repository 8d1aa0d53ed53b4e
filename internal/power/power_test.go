package power

import (
	"math"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
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

func TestEstimateQuadraticVoltageSaving(t *testing.T) {
	c := invPair()
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.25
	}
	high := Estimate(c, lib, act, 20e6)
	c.Gates[0].Volt = cell.VLow
	c.Gates[1].Volt = cell.VLow
	low := Estimate(c, lib, act, 20e6)
	wantRatio := lib.PowerRatio()
	gotRatio := (low.Switching + low.Internal) / (high.Switching + high.Internal)
	if math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Fatalf("all-low power ratio = %.4f, want (Vlow/Vhigh)^2 = %.4f", gotRatio, wantRatio)
	}
}

func TestEstimateChargesLCStatic(t *testing.T) {
	c := invPair()
	lcCell := lib.LevelConverter()
	gi, lcSig := c.AddGate("lc", lcCell, c.GateSignal(0))
	c.Gates[gi].IsLC = true
	c.Gates[1].In[0] = lcSig
	c.Gates[0].Volt = cell.VLow
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.2
	}
	b := Estimate(c, lib, act, 20e6)
	if b.LCStatic != lib.LCStaticPower {
		t.Fatalf("LC static = %g, want %g", b.LCStatic, lib.LCStaticPower)
	}
	if b.PerGate[gi] <= lib.LCStaticPower {
		t.Fatal("converter's switching power missing from its per-gate total")
	}
}

func TestEstimateSkipsDeadGates(t *testing.T) {
	c := invPair()
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.25
	}
	full := Estimate(c, lib, act, 20e6)
	c.Gates[1].Dead = true
	c.POs[0].Src = c.GateSignal(0)
	partial := Estimate(c, lib, act, 20e6)
	if partial.Total >= full.Total {
		t.Fatalf("dead gate still billed: %g vs %g", partial.Total, full.Total)
	}
	if partial.PerGate[1] != 0 {
		t.Fatal("dead gate has per-gate power")
	}
}

func TestEstimateRandomEndToEnd(t *testing.T) {
	c := invPair()
	b, r, err := EstimateRandom(c, lib, 64, 1, DefaultClock)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Fatalf("total power %g", b.Total)
	}
	if r.Vectors != 64*64 {
		t.Fatalf("vectors = %d", r.Vectors)
	}
	// InputNets reported but excluded from Total.
	if b.InputNets <= 0 {
		t.Fatal("input-net power not reported")
	}
	if math.Abs(b.Total-(b.Switching+b.Internal+b.LCStatic)) > 1e-18 {
		t.Fatal("Total must exclude InputNets")
	}
}

func TestLoweringOneGateSavesExactlyItsShare(t *testing.T) {
	c := invPair()
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.3
	}
	before := Estimate(c, lib, act, 20e6)
	c.Gates[0].Volt = cell.VLow
	after := Estimate(c, lib, act, 20e6)
	saved := before.Total - after.Total
	wantSaved := before.PerGate[0] * (1 - lib.PowerRatio())
	if math.Abs(saved-wantSaved) > 1e-15 {
		t.Fatalf("saved %g, want %g (gate 0's quadratic share)", saved, wantSaved)
	}
}
