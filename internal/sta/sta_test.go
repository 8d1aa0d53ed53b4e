package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

var lib = cell.Compass06()

func invChain(n int) *netlist.Circuit {
	c := netlist.New("chain")
	s := c.AddPI("in")
	inv := lib.Smallest(cell.FINV)
	for i := 0; i < n; i++ {
		_, s = c.AddGate(fmt.Sprintf("g%d", i), inv, s)
	}
	c.AddPO("out", s)
	return c
}

func TestChainArrivalIsSumOfStageDelays(t *testing.T) {
	c := invChain(5)
	tm, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	inv := lib.Smallest(cell.FINV)
	// Interior stages drive one inverter pin + wire; the last drives the PO.
	interior := inv.Delay(0, inv.InputCap[0]+lib.WireCapPerFanout, 1)
	last := inv.Delay(0, lib.POLoadCap, 1)
	want := 4*interior + last
	if math.Abs(tm.WorstArrival-want) > 1e-12 {
		t.Fatalf("chain arrival = %.6f, want %.6f", tm.WorstArrival, want)
	}
}

func TestSlackZeroOnCriticalPathAtExactConstraint(t *testing.T) {
	c := invChain(6)
	d, err := MinDelay(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Analyze(c, lib, d)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range c.Gates {
		out := c.GateSignal(gi)
		if math.Abs(tm.Slack(out)) > 1e-12 {
			t.Fatalf("gate %d slack = %g on a pure chain at its own delay", gi, tm.Slack(out))
		}
	}
	if !tm.Meets(1e-12) {
		t.Fatal("constraint equal to delay must be met")
	}
}

func TestSlackReflectsPathImbalance(t *testing.T) {
	// Two parallel chains of different depth share the constraint.
	c := netlist.New("two")
	a := c.AddPI("a")
	b := c.AddPI("b")
	inv := lib.Smallest(cell.FINV)
	s := a
	for i := 0; i < 8; i++ {
		_, s = c.AddGate(fmt.Sprintf("deep%d", i), inv, s)
	}
	c.AddPO("po0", s)
	_, t1 := c.AddGate("shallow", inv, b)
	c.AddPO("po1", t1)
	d, err := MinDelay(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Analyze(c, lib, d)
	if err != nil {
		t.Fatal(err)
	}
	shallowOut := c.GateSignal(8)
	if tm.Slack(shallowOut) <= 0 {
		t.Fatalf("shallow branch slack = %g, want positive", tm.Slack(shallowOut))
	}
	deepOut := c.GateSignal(7)
	if math.Abs(tm.Slack(deepOut)) > 1e-12 {
		t.Fatalf("deep branch slack = %g, want 0", tm.Slack(deepOut))
	}
}

func TestLowVoltageSlowsGate(t *testing.T) {
	c := invChain(3)
	before, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Gates[1].Volt = cell.VLow
	after, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	if after.WorstArrival <= before.WorstArrival {
		t.Fatalf("low-voltage gate did not slow the path: %.4f vs %.4f",
			after.WorstArrival, before.WorstArrival)
	}
	// ArrivalWith at VLow must predict exactly the arrival change of scaling
	// gate 0.
	inc, err := NewIncremental(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	out := c.GateSignal(0)
	predicted := inc.ArrivalWith(0, c.Gates[0].Cell, cell.VLow, inc.Load[out]) - inc.Arrival[out]
	c.Gates[0].Volt = cell.VLow
	final, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := final.Arrival[out] - before.Arrival[out]
	if math.Abs(got-predicted) > 1e-12 {
		t.Fatalf("ArrivalWith predicted a change of %.6f, actual %.6f", predicted, got)
	}
}

func TestLoadsAccounting(t *testing.T) {
	c := netlist.New("loads")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	nand := lib.Smallest(cell.FNAND2)
	_, s := c.AddGate("drv", inv, a)
	c.AddGate("c1", inv, s)
	c.AddGate("c2", nand, s, a)
	c.AddPO("o1", c.GateSignal(1))
	c.AddPO("o2", c.GateSignal(2))
	c.AddPO("odrv", s)
	fan := c.BuildFanouts()
	load := Loads(c, lib, fan)
	want := inv.InputCap[0] + nand.InputCap[0] + 2*lib.WireCapPerFanout + lib.POLoadCap
	if math.Abs(load[s]-want) > 1e-15 {
		t.Fatalf("load = %.6f, want %.6f", load[s], want)
	}
	// Pin B of the NAND contributes to the PI's load, pin A to the driver's.
	wantPI := inv.InputCap[0] + nand.InputCap[1] + 2*lib.WireCapPerFanout
	if math.Abs(load[a]-wantPI) > 1e-15 {
		t.Fatalf("PI load = %.6f, want %.6f", load[a], wantPI)
	}
}

func TestRequiredTimesPropagateBackward(t *testing.T) {
	c := invChain(4)
	tm, err := Analyze(c, lib, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Required times must decrease monotonically toward the inputs by the
	// stage delays, starting from the constraint at the PO.
	last := c.GateSignal(3)
	if math.Abs(tm.Required[last]-10) > 1e-12 {
		t.Fatalf("PO required = %.4f", tm.Required[last])
	}
	for gi := 3; gi > 0; gi-- {
		hi := tm.Required[c.GateSignal(gi)]
		lo := tm.Required[c.GateSignal(gi-1)]
		if lo >= hi {
			t.Fatalf("required times not decreasing: %.4f -> %.4f", hi, lo)
		}
	}
}

func TestArrivalWithPredictsResize(t *testing.T) {
	c := invChain(5)
	inc, err := NewIncremental(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	up := lib.Upsize(c.Gates[2].Cell)
	predicted := inc.ArrivalWith(2, up, c.Gates[2].Volt, inc.Load[c.GateSignal(2)])
	driverBefore := inc.Arrival[c.GateSignal(1)]
	c.Gates[2].Cell = up
	after, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction holds the fanin arrivals fixed; gate 2's fanin is gate 1,
	// whose own delay changed (larger load from the upsized pin), so allow
	// exactly that driver effect and no more.
	driverDelta := after.Arrival[c.GateSignal(1)] - driverBefore
	got := after.Arrival[c.GateSignal(2)]
	if math.Abs(got-(predicted+driverDelta)) > 1e-9 {
		t.Fatalf("resize prediction off: predicted %.6f + driver %.6f, got %.6f",
			predicted, driverDelta, got)
	}
}

func TestAnalyzeRandomMonotonicity(t *testing.T) {
	// Arrival times never decrease when any single gate is slowed to Vlow.
	rng := rand.New(rand.NewSource(9))
	c := netlist.New("r")
	for i := 0; i < 6; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	nand := lib.Smallest(cell.FNAND2)
	for k := 0; k < 40; k++ {
		a := netlist.Signal(rng.Intn(c.NumSignals()))
		b := netlist.Signal(rng.Intn(c.NumSignals()))
		c.AddGate(fmt.Sprintf("g%d", k), nand, a, b)
	}
	c.AddPO("o", c.GateSignal(39))
	base, err := Analyze(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		gi := rng.Intn(40)
		c.Gates[gi].Volt = cell.VLow
		after, err := Analyze(c, lib, 100)
		if err != nil {
			t.Fatal(err)
		}
		for s := range after.Arrival {
			if after.Arrival[s] < base.Arrival[s]-1e-12 {
				t.Fatalf("arrival decreased after slowing gate %d", gi)
			}
		}
		c.Gates[gi].Volt = cell.VHigh
	}
}
