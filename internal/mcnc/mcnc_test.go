package mcnc

import (
	"fmt"
	"testing"

	"dualvdd/internal/logic"
)

func TestSuiteHas39Circuits(t *testing.T) {
	if got := len(Names()); got != 39 {
		t.Fatalf("suite has %d circuits, the paper's test bed has 39", got)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate circuit %s", n)
		}
		seen[n] = true
	}
}

func TestEveryGeneratorValidates(t *testing.T) {
	for _, name := range Names() {
		n, err := Generate(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(n.PIs) == 0 || len(n.POs) == 0 || n.NumLiveNodes() == 0 {
			t.Fatalf("%s: degenerate network (%d PIs, %d nodes, %d POs)",
				name, len(n.PIs), n.NumLiveNodes(), len(n.POs))
		}
		// Sweeping must not gut the circuit: the generator wires everything
		// toward outputs, so at most a small fraction may be dangling.
		before := n.NumLiveNodes()
		n.Sweep()
		if after := n.NumLiveNodes(); float64(after) < 0.85*float64(before) {
			t.Fatalf("%s: sweep removed %d of %d nodes — generator leaves dead logic",
				name, before-after, before)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"des", "b9", "C880", "i2"} {
		a, err := Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumLiveNodes() != b.NumLiveNodes() || len(a.PIs) != len(b.PIs) {
			t.Fatalf("%s: non-deterministic generation", name)
		}
		for i := range a.Nodes {
			if a.Nodes[i].Name != b.Nodes[i].Name || len(a.Nodes[i].Cubes) != len(b.Nodes[i].Cubes) {
				t.Fatalf("%s: node %d differs between generations", name, i)
			}
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Generate("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if PaperGates("nope") != 0 {
		t.Fatal("unknown name has paper gates")
	}
	if PaperGates("des") != 2795 {
		t.Fatalf("des paper gates = %d", PaperGates("des"))
	}
}

func TestAdderAdds(t *testing.T) {
	n := Adder("add", 8)
	// a=0b10110101, b=0b01001011, cin=1 -> sum 0b00000001 carry out 1.
	a, b := uint64(0b10110101), uint64(0b01001011)
	words := make([]uint64, len(n.PIs))
	for i := 0; i < 8; i++ {
		if a>>uint(i)&1 == 1 {
			words[i] = ^uint64(0)
		}
		if b>>uint(i)&1 == 1 {
			words[8+i] = ^uint64(0)
		}
	}
	words[16] = ^uint64(0) // cin = 1
	po, _, err := n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	want := a + b + 1
	for i := 0; i < 8; i++ {
		bit := po[i] & 1
		if bit != want>>uint(i)&1 {
			t.Fatalf("sum bit %d = %d, want %d", i, bit, want>>uint(i)&1)
		}
	}
	if po[8]&1 != want>>8&1 {
		t.Fatalf("carry out = %d, want %d", po[8]&1, want>>8&1)
	}
}

func TestMuxSelects(t *testing.T) {
	n := MuxTree("m", 3)
	words := make([]uint64, len(n.PIs))
	// data[5] = 1, select 5 (s0=1, s1=0, s2=1).
	words[5] = ^uint64(0)
	words[8] = ^uint64(0)  // s0
	words[10] = ^uint64(0) // s2
	po, _, err := n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&1 != 1 {
		t.Fatal("mux did not select data[5]")
	}
	// Different select: expect 0.
	words[8] = 0
	po, _, _ = n.Eval(words, false)
	if po[0]&1 != 0 {
		t.Fatal("mux selected the wrong input")
	}
}

func TestECCCorrectsSingleError(t *testing.T) {
	n := ECC("ecc", 16, 5)
	// Encode all-zeros: check bits must be the parity of empty sets = 0, so
	// with zero data and zero checks all outputs must be zero.
	words := make([]uint64, len(n.PIs))
	po, _, err := n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range po {
		if w != 0 {
			t.Fatalf("clean word decoded with flipped bit %d", i)
		}
	}
	// Flip data bit 5: syndrome = 5, the corrector must flip it back.
	words[5] = ^uint64(0)
	po, _, err = n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[5]&1 != 0 {
		t.Fatal("single-bit error not corrected")
	}
	for i := 0; i < 16; i++ {
		if i != 5 && po[i]&1 != 0 {
			t.Fatalf("correction disturbed bit %d", i)
		}
	}
}

func TestPriorityGrantsHighest(t *testing.T) {
	n := Priority("p", 4, 1)
	words := make([]uint64, len(n.PIs))
	// Requests 1 and 3 asserted, enable on: only grant 3 fires.
	words[1] = ^uint64(0)
	words[3] = ^uint64(0)
	words[4] = ^uint64(0) // en0
	po, _, err := n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := uint64(0)
		if i == 3 {
			want = 1
		}
		if po[i]&1 != want {
			t.Fatalf("grant%d = %d, want %d", i, po[i]&1, want)
		}
	}
}

func TestComparatorOrdering(t *testing.T) {
	n := comparator("c", 4)
	eval := func(a, b uint64) (eq, gt, lt uint64) {
		words := make([]uint64, 8)
		for i := 0; i < 4; i++ {
			if a>>uint(i)&1 == 1 {
				words[i] = 1
			}
			if b>>uint(i)&1 == 1 {
				words[4+i] = 1
			}
		}
		po, _, err := n.Eval(words, false)
		if err != nil {
			t.Fatal(err)
		}
		return po[0] & 1, po[1] & 1, po[2] & 1
	}
	cases := []struct{ a, b uint64 }{{3, 3}, {9, 4}, {2, 11}, {0, 0}, {15, 14}}
	for _, tc := range cases {
		eq, gt, lt := eval(tc.a, tc.b)
		if (eq == 1) != (tc.a == tc.b) || (gt == 1) != (tc.a > tc.b) || (lt == 1) != (tc.a < tc.b) {
			t.Fatalf("compare(%d,%d) = eq%d gt%d lt%d", tc.a, tc.b, eq, gt, lt)
		}
	}
}

func TestDecoderOneHot(t *testing.T) {
	n := decoder("d", 3)
	words := make([]uint64, len(n.PIs))
	words[1] = 1 // s1 -> value 2
	words[3] = 1 // enable
	po, _, err := n.Eval(words, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		want := uint64(0)
		if v == 2 {
			want = 1
		}
		if po[v]&1 != want {
			t.Fatalf("decoder line %d = %d", v, po[v]&1)
		}
	}
}

func TestFoldedCircuitsHaveNarrowOutputs(t *testing.T) {
	n, err := Generate("i2")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.POs) > 3 {
		t.Fatalf("i2 should be output-folded, has %d POs", len(n.POs))
	}
	wide, err := Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.POs) < 10 {
		t.Fatalf("b9 should keep its loose ends as POs, has %d", len(wide.POs))
	}
}

func TestXorTreeHelperBalanced(t *testing.T) {
	n := logic.New("x")
	var xs []logic.Signal
	for i := 0; i < 9; i++ {
		xs = append(xs, n.AddPI(string(rune('a'+i))))
	}
	root := xorTree(n, "t", xs)
	n.AddPO("o", root)
	// Parity of 9 inputs: flip each input one at a time.
	words := make([]uint64, 9)
	po, _, _ := n.Eval(words, false)
	if po[0]&1 != 0 {
		t.Fatal("even parity of zeros wrong")
	}
	words[4] = 1
	po, _, _ = n.Eval(words, false)
	if po[0]&1 != 1 {
		t.Fatal("single one must give odd parity")
	}
}

// decoder builds a k→2^k line decoder with an enable.
func decoder(name string, k int) *logic.Network {
	n := logic.New(name)
	sel := make([]logic.Signal, k)
	for i := 0; i < k; i++ {
		sel[i] = n.AddPI(fmt.Sprintf("s%d", i))
	}
	en := n.AddPI("en")
	fanin := append(append([]logic.Signal(nil), sel...), en)
	for v := 0; v < 1<<uint(k); v++ {
		row := make([]byte, k+1)
		for i := 0; i < k; i++ {
			if v>>uint(i)&1 == 1 {
				row[i] = '1'
			} else {
				row[i] = '0'
			}
		}
		row[k] = '1'
		out := n.AddNode(fmt.Sprintf("y%d", v), fanin, []logic.Cube{logic.Cube(row)})
		n.AddPO(fmt.Sprintf("o%d", v), out)
	}
	return n
}

// comparator builds an n-bit magnitude comparator (eq/gt/lt outputs).
func comparator(name string, bits int) *logic.Network {
	n := logic.New(name)
	a := make([]logic.Signal, bits)
	b := make([]logic.Signal, bits)
	for i := 0; i < bits; i++ {
		a[i] = n.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < bits; i++ {
		b[i] = n.AddPI(fmt.Sprintf("b%d", i))
	}
	// MSB-first ripple: eq chain and gt accumulation.
	var eqChain, gt logic.Signal = logic.None, logic.None
	for i := bits - 1; i >= 0; i-- {
		eq := n.AddNode(fmt.Sprintf("eq%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"11", "00"})
		gti := n.AddNode(fmt.Sprintf("gtb%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"10"})
		if eqChain == logic.None {
			eqChain, gt = eq, gti
			continue
		}
		gt = n.AddNode(fmt.Sprintf("gt%d", i), []logic.Signal{gt, eqChain, gti},
			[]logic.Cube{"1--", "-11"})
		eqChain = n.AddNode(fmt.Sprintf("eqc%d", i), []logic.Signal{eqChain, eq},
			[]logic.Cube{"11"})
	}
	lt := n.AddNode("lt", []logic.Signal{eqChain, gt}, []logic.Cube{"00"})
	n.AddPO("eq", eqChain)
	n.AddPO("gt", gt)
	n.AddPO("lt", lt)
	return n
}
