package blif

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
)

const sample = `
# a comment
.model demo
.inputs a b c
.outputs f
.names a b t1   # AND
11 1
.names t1 c f
1- 1
-1 1
.end
`

func TestParseNetworkBasic(t *testing.T) {
	n, err := ParseNetwork(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "demo" || len(n.PIs) != 3 || len(n.POs) != 1 || n.NumLiveNodes() != 2 {
		t.Fatalf("parsed %s: %d PIs %d POs %d nodes", n.Name, len(n.PIs), len(n.POs), n.NumLiveNodes())
	}
	// f = (a AND b) OR c
	po, _, err := n.Eval([]uint64{0b1100, 0b1010, 0b0110}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&0xf != 0b1110 {
		t.Fatalf("function = %04b, want 1110", po[0]&0xf)
	}
}

func TestParseLineContinuation(t *testing.T) {
	src := ".model c\n.inputs a \\\n b\n.outputs f\n.names a b f\n11 1\n.end\n"
	n, err := ParseNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 2 {
		t.Fatalf("continuation lost inputs: %v", n.PIs)
	}
}

func TestParseOffsetCover(t *testing.T) {
	// Output column 0 describes the complement.
	src := ".model inv\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
	n, err := ParseNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	po, _, err := n.Eval([]uint64{0b1100, 0b1010}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&0xf != 0b0111 { // NAND
		t.Fatalf("off-set cover = %04b, want 0111", po[0]&0xf)
	}
}

func TestParseConstants(t *testing.T) {
	src := ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
	n, err := ParseNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	po, _, err := n.Eval([]uint64{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0] != ^uint64(0) || po[1] != 0 {
		t.Fatalf("constants wrong: %x %x", po[0], po[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"latch":       ".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n",
		"mixed cover": ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end\n",
		"bad width":   ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n",
		"undefined":   ".model m\n.inputs a\n.outputs f\n.names ghost f\n1 1\n.end\n",
		"redefined":   ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n",
		"orphan row":  ".model m\n.inputs a\n.outputs f\n11 1\n.end\n",
		"two models":  ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n.model n\n.end\n",
		"unknown dot": ".model m\n.gibberish x\n.end\n",
	}
	for name, src := range cases {
		if _, err := ParseNetwork(strings.NewReader(src)); err == nil {
			t.Errorf("%s: error not detected", name)
		}
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := randomNetwork(rng)
		var buf bytes.Buffer
		if err := WriteNetwork(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNetwork(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: reparse: %v\n%s", trial, err, buf.String())
		}
		// Same behaviour over random vectors.
		words := make([]uint64, len(n.PIs))
		for i := range words {
			words[i] = rng.Uint64()
		}
		a, _, err := n.Eval(words, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := back.Eval(words, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: PO %d differs after round trip", trial, i)
			}
		}
	}
}

func randomNetwork(rng *rand.Rand) *logic.Network {
	n := logic.New("rt")
	nPI := 2 + rng.Intn(5)
	for i := 0; i < nPI; i++ {
		n.AddPI("in" + string(rune('a'+i)))
	}
	for k := 0; k < 5+rng.Intn(20); k++ {
		nin := 1 + rng.Intn(3)
		if nin > n.NumSignals() {
			nin = n.NumSignals()
		}
		fanin := make([]logic.Signal, 0, nin)
		seen := map[logic.Signal]bool{}
		for len(fanin) < nin {
			s := logic.Signal(rng.Intn(n.NumSignals()))
			if !seen[s] {
				seen[s] = true
				fanin = append(fanin, s)
			}
		}
		var cubes []logic.Cube
		for c := 0; c < 1+rng.Intn(2); c++ {
			row := make([]byte, nin)
			allDash := true
			for i := range row {
				row[i] = "01-"[rng.Intn(3)]
				if row[i] != '-' {
					allDash = false
				}
			}
			if allDash {
				row[0] = '1'
			}
			cubes = append(cubes, logic.Cube(row))
		}
		n.AddNode("n"+string(rune('a'+k%26))+string(rune('0'+k/26)), fanin, cubes)
	}
	n.AddPO("out", logic.Signal(n.NumSignals()-1))
	return n
}

func TestCircuitRoundTrip(t *testing.T) {
	lib := cell.Compass06()
	c := netlist.New("m")
	a := c.AddPI("a")
	b := c.AddPI("b")
	nand := lib.Smallest(cell.FNAND2)
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("t1", nand, a, b)
	gi2, s2 := c.AddGate("t2", inv, s1)
	c.AddPO("f", s2)
	c.Gates[gi2].Volt = cell.VLow

	var buf bytes.Buffer
	if err := WriteCircuit(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCircuit(bytes.NewReader(buf.Bytes()), lib)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if back.NumLiveGates() != 2 || back.NumLowGates() != 1 {
		t.Fatalf("round trip: %d gates %d low", back.NumLiveGates(), back.NumLowGates())
	}
	// The renamed output net must carry the voltage annotation.
	found := false
	for _, g := range back.Gates {
		if g.Volt == cell.VLow && g.Cell.Function == cell.FINV {
			found = true
		}
	}
	if !found {
		t.Fatalf("voltage annotation lost:\n%s", buf.String())
	}
}

func TestParseCircuitErrors(t *testing.T) {
	lib := cell.Compass06()
	cases := map[string]string{
		"unknown cell": ".model m\n.inputs a\n.outputs f\n.gate NOPE A=a O=f\n.end\n",
		"missing pin":  ".model m\n.inputs a\n.outputs f\n.gate NAND2_d0 A=a O=f\n.end\n",
		"double drive": ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=f\n.gate INV_d0 A=a O=f\n.end\n",
		"undriven PO":  ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=g\n.end\n",
		"volt unknown": ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=f\n.volt ghost low\n.end\n",
		"volt level":   ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=f\n.volt f medium\n.end\n",
		"volt rail":    ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=f\n.volt f 2\n.end\n",
		"mixed forms":  ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.gate INV_d0 A=a O=g\n.end\n",
	}
	for name, src := range cases {
		if _, err := ParseCircuit(strings.NewReader(src), lib); err == nil {
			t.Errorf("%s: error not detected", name)
		}
	}
}

func TestParseCircuitMarksLCs(t *testing.T) {
	lib := cell.Compass06()
	src := ".model m\n.inputs a\n.outputs f\n.gate INV_d0 A=a O=x\n.gate LCONV_d0 A=x O=f\n.volt x low\n.end\n"
	c, err := ParseCircuit(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLCs() != 1 {
		t.Fatalf("level converter not recognised: %d", c.NumLCs())
	}
}
