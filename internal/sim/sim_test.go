package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

var lib = cell.Compass06()

// ctx is the live context of every run that is not testing cancellation.
var ctx = context.Background()

func TestRunDeterministic(t *testing.T) {
	c := xorCircuit()
	a, err := Run(ctx, c, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, c, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if a[s] != b[s] {
			t.Fatal("same seed, different activities")
		}
	}
	d, err := Run(ctx, c, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a {
		if a[s] != d[s] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical activities")
	}
}

func xorCircuit() *netlist.Circuit {
	c := netlist.New("x")
	a := c.AddPI("a")
	b := c.AddPI("b")
	_, s := c.AddGate("x", lib.Smallest(cell.FXOR2), a, b)
	c.AddPO("o", s)
	return c
}

func TestActivityStatistics(t *testing.T) {
	// Random PIs: rise activity ~0.25 (p0·p1 at probability 0.5). XOR of
	// two random inputs behaves the same.
	c := xorCircuit()
	act, err := Run(ctx, c, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < c.NumSignals(); s++ {
		if math.Abs(act[s]-0.25) > 0.03 {
			t.Fatalf("signal %d activity %.3f, want ~0.25", s, act[s])
		}
	}
}

func TestActivityOfAND(t *testing.T) {
	// AND of two random inputs: p1 = 1/4, so rises = p0·p1 = 3/16.
	c := netlist.New("and")
	a := c.AddPI("a")
	b := c.AddPI("b")
	_, s := c.AddGate("g", lib.Smallest(cell.FAND2), a, b)
	c.AddPO("o", s)
	act, err := Run(ctx, c, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(act[s]-3.0/16) > 0.02 {
		t.Fatalf("AND activity %.3f, want ~%.3f", act[s], 3.0/16)
	}
}

func TestTieCellsNeverSwitch(t *testing.T) {
	c := netlist.New("tie")
	c.AddPI("a")
	_, s := c.AddGate("one", lib.Smallest(cell.FTIE1))
	c.AddPO("o", s)
	act, err := Run(ctx, c, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if act[s] != 0 {
		t.Fatalf("tie-1: activity %.3f", act[s])
	}
}

func TestWordBoundaryTransitionsCounted(t *testing.T) {
	// An inverter chain's activity equals its input's: every input rise is
	// an output fall and vice versa; with two inverters they match exactly.
	c := netlist.New("chain")
	s := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("i1", inv, s)
	_, s2 := c.AddGate("i2", inv, s1)
	c.AddPO("o", s2)
	act, err := Run(ctx, c, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	if act[s] != act[s2] {
		t.Fatalf("double inversion changed activity: %.4f vs %.4f", act[s], act[s2])
	}
	// The inverted net's rises are the input's falls; for a 0.5-probability
	// signal these agree within sampling error but not exactly — just check
	// plausibility.
	if math.Abs(act[s1]-act[s]) > 0.02 {
		t.Fatalf("inverter activity implausible: %.4f vs %.4f", act[s1], act[s])
	}
}

func TestRunSkipsDeadGates(t *testing.T) {
	c := xorCircuit()
	gi, _ := c.AddGate("dead", lib.Smallest(cell.FINV), 0)
	c.Gates[gi].Dead = true
	act, err := Run(ctx, c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if act[c.GateSignal(gi)] != 0 {
		t.Fatal("dead gate accumulated activity")
	}
}

func TestEvalMatchesTruthTable(t *testing.T) {
	// Build one gate of every library function and compare Eval against the
	// cell's own truth table row by row.
	for fn := cell.FINV; fn <= cell.FMAJ3; fn++ {
		cl := lib.Smallest(fn)
		if cl == nil {
			t.Fatalf("library lacks %s", fn)
		}
		c := netlist.New("f")
		ins := make([]netlist.Signal, fn.NumInputs())
		for i := range ins {
			ins[i] = c.AddPI(fmt.Sprintf("i%d", i))
		}
		_, out := c.AddGate("g", cl, ins...)
		c.AddPO("o", out)
		// Drive exhaustive rows packed into words.
		words := make([]uint64, len(ins))
		for i := range words {
			var w uint64
			for row := 0; row < 64; row++ {
				if row>>uint(i)&1 == 1 {
					w |= 1 << uint(row)
				}
			}
			words[i] = w
		}
		got, err := Eval(c, words)
		if err != nil {
			t.Fatal(err)
		}
		rows := uint(1) << uint(fn.NumInputs())
		mask := ^uint64(0)
		if rows < 64 {
			mask = (uint64(1) << rows) - 1
		}
		if got[0]&mask != fn.TruthTable()&mask {
			t.Fatalf("%s: Eval %x != truth table %x", fn, got[0]&mask, fn.TruthTable())
		}
	}
}

func TestEvalBadInputCount(t *testing.T) {
	c := xorCircuit()
	if _, err := Eval(c, []uint64{1}); err == nil {
		t.Fatal("wrong PI word count accepted")
	}
}

func TestRunRejectsZeroWords(t *testing.T) {
	c := xorCircuit()
	if _, err := Run(ctx, c, 0, 1); err == nil {
		t.Fatal("zero simulation length accepted")
	}
}

// TestRunStopsOnDoneContext: a cancelled or expired context ends a run with
// its own error, checked before every block, so even a run too long to
// finish returns at once.
func TestRunStopsOnDoneContext(t *testing.T) {
	c := xorCircuit()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Run(cancelled, c, 1<<30, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	expired, stop := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer stop()
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(expired, 1<<30, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run: err = %v, want context.DeadlineExceeded", err)
	}
}
