package logic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func xorNet() *Network {
	n := New("x")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddNode("x", []Signal{a, b}, []Cube{"10", "01"})
	n.AddPO("x", x)
	return n
}

func TestEvalCube(t *testing.T) {
	in := []uint64{0b1100, 0b1010}
	if got := EvalCube("11", in); got&0xf != 0b1000 {
		t.Fatalf("AND cube = %04b", got&0xf)
	}
	if got := EvalCube("0-", in); got&0xf != 0b0011 {
		t.Fatalf("NOT-a cube = %04b", got&0xf)
	}
	if got := EvalCube("--", in); got&0xf != 0b1111 {
		t.Fatalf("tautology cube = %04b", got&0xf)
	}
}

func TestNodeTruthTable(t *testing.T) {
	n := xorNet()
	tt, err := truthTable(n.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if tt != 0b0110 {
		t.Fatalf("xor truth table = %04b", tt)
	}
}

func TestTruthTableTooWide(t *testing.T) {
	n := New("w")
	fanin := make([]Signal, 7)
	for i := range fanin {
		fanin[i] = n.AddPI(string(rune('a' + i)))
	}
	nd := &Node{Name: "wide", Fanin: fanin, Cubes: []Cube{"1111111"}}
	if _, err := truthTable(nd); err == nil {
		t.Fatal("7-input truth table must error")
	}
}

func TestEvalNetwork(t *testing.T) {
	n := xorNet()
	po, _, err := n.Eval([]uint64{0b1100, 0b1010}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&0xf != 0b0110 {
		t.Fatalf("xor eval = %04b", po[0]&0xf)
	}
}

func TestIsConst(t *testing.T) {
	zero := &Node{Name: "z"}
	if c, v := zero.IsConst(); !c || v {
		t.Fatal("empty cover must be constant 0")
	}
	one := &Node{Name: "o", Fanin: []Signal{0}, Cubes: []Cube{"-"}}
	if c, v := one.IsConst(); !c || !v {
		t.Fatal("all-dash cube must be constant 1")
	}
	not := &Node{Name: "n", Fanin: []Signal{0}, Cubes: []Cube{"0"}}
	if c, _ := not.IsConst(); c {
		t.Fatal("inverter flagged constant")
	}
}

func TestSweepRemovesDangling(t *testing.T) {
	n := New("d")
	a := n.AddPI("a")
	x := n.AddNode("x", []Signal{a}, []Cube{"0"})
	n.AddNode("dead", []Signal{a}, []Cube{"1"})
	n.AddPO("o", x)
	if n.Sweep() == 0 {
		t.Fatal("sweep found nothing")
	}
	if n.NumLiveNodes() != 1 {
		t.Fatalf("live nodes = %d, want 1", n.NumLiveNodes())
	}
}

func TestSweepPropagatesConstants(t *testing.T) {
	n := New("c")
	a := n.AddPI("a")
	one := n.AddNode("one", nil, []Cube{""}) // constant 1
	// x = a AND one -> must simplify to buffer of a, then collapse.
	x := n.AddNode("x", []Signal{a, one}, []Cube{"11"})
	y := n.AddNode("y", []Signal{x}, []Cube{"0"})
	n.AddPO("o", y)
	n.Sweep()
	// After sweeping, y's fanin chain must bypass the and-with-1.
	yNode := n.NodeOf(y)
	if yNode.Fanin[0] != a {
		t.Fatalf("constant not propagated: y fed by %s", n.SignalName(yNode.Fanin[0]))
	}
	// Behaviour: y = !a.
	po, _, err := n.Eval([]uint64{0b01}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&0b11 != 0b10 {
		t.Fatalf("swept network wrong: %02b", po[0]&0b11)
	}
}

func TestSweepKillsFalseCubes(t *testing.T) {
	n := New("f")
	a := n.AddPI("a")
	zero := n.AddNode("zero", nil, nil)
	// x = (a AND 0) OR a == a
	x := n.AddNode("x", []Signal{a, zero}, []Cube{"11", "1-"})
	n.AddPO("o", x)
	n.Sweep()
	po, _, err := n.Eval([]uint64{0b01}, false)
	if err != nil {
		t.Fatal(err)
	}
	if po[0]&0b11 != 0b01 {
		t.Fatalf("swept network wrong: %02b", po[0]&0b11)
	}
}

func TestSweepCollapsesBufferChains(t *testing.T) {
	n := New("b")
	a := n.AddPI("a")
	b1 := n.AddNode("b1", []Signal{a}, []Cube{"1"})
	b2 := n.AddNode("b2", []Signal{b1}, []Cube{"1"})
	x := n.AddNode("x", []Signal{b2}, []Cube{"0"})
	n.AddPO("o", x)
	n.Sweep()
	if n.NumLiveNodes() != 1 {
		t.Fatalf("buffer chain survived: %d live nodes", n.NumLiveNodes())
	}
	if n.NodeOf(x).Fanin[0] != a {
		t.Fatal("inverter not re-pointed to the PI")
	}
}

func TestSweepPreservesBehaviour(t *testing.T) {
	// Property: sweeping never changes PO functions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomSOP(rng, 4, 20)
		words := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		before, _, err := n.Eval(words, false)
		if err != nil {
			return false
		}
		n.Sweep()
		if err := n.Validate(); err != nil {
			return false
		}
		after, _, err := n.Eval(words, false)
		if err != nil {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomSOP builds a random network mixing buffers, constants and covers.
func randomSOP(rng *rand.Rand, nPI, nNodes int) *Network {
	n := New("r")
	for i := 0; i < nPI; i++ {
		n.AddPI(string(rune('a' + i)))
	}
	for k := 0; k < nNodes; k++ {
		max := n.NumSignals()
		switch rng.Intn(6) {
		case 0: // buffer
			n.AddNode(nm(k), []Signal{Signal(rng.Intn(max))}, []Cube{"1"})
		case 1: // constant
			if rng.Intn(2) == 0 {
				n.AddNode(nm(k), nil, nil)
			} else {
				n.AddNode(nm(k), nil, []Cube{""})
			}
		default:
			nin := 1 + rng.Intn(3)
			fanin := make([]Signal, 0, nin)
			seen := map[Signal]bool{}
			for len(fanin) < nin {
				s := Signal(rng.Intn(max))
				if !seen[s] {
					seen[s] = true
					fanin = append(fanin, s)
				}
			}
			ncubes := 1 + rng.Intn(2)
			var cubes []Cube
			for c := 0; c < ncubes; c++ {
				row := make([]byte, len(fanin))
				for i := range row {
					row[i] = "01-"[rng.Intn(3)]
				}
				cubes = append(cubes, Cube(row))
			}
			n.AddNode(nm(k), fanin, cubes)
		}
	}
	for i := 0; i < 3; i++ {
		n.AddPO("o"+string(rune('0'+i)), Signal(n.NumSignals()-1-i))
	}
	return n
}

func nm(k int) string {
	return "n" + string(rune('a'+k%26)) + string(rune('0'+k/26))
}

func TestValidateCatchesBadCubeWidth(t *testing.T) {
	n := New("bad")
	a := n.AddPI("a")
	n.AddNode("x", []Signal{a}, []Cube{"11"})
	if err := n.Validate(); err == nil {
		t.Fatal("cube width mismatch undetected")
	}
}

func TestValidateCatchesIllegalChar(t *testing.T) {
	n := New("bad")
	a := n.AddPI("a")
	n.AddNode("x", []Signal{a}, []Cube{"z"})
	if err := n.Validate(); err == nil {
		t.Fatal("illegal cube character undetected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := xorNet()
	c := n.Clone()
	c.Nodes[0].Cubes[0] = "11"
	c.Nodes[0].Dead = true
	if n.Nodes[0].Cubes[0] != "10" || n.Nodes[0].Dead {
		t.Fatal("clone shares state")
	}
}

func TestTopoOrderCycleDetection(t *testing.T) {
	n := New("cyc")
	a := n.AddPI("a")
	x := n.AddNode("x", []Signal{a}, []Cube{"1"})
	y := n.AddNode("y", []Signal{x}, []Cube{"1"})
	n.NodeOf(x).Fanin[0] = y
	n.AddPO("o", y)
	if _, err := n.TopoOrder(); err == nil {
		t.Fatal("cycle undetected")
	}
}

// truthTable computes nd's truth table for up to 6 fanins, with fanin 0 as
// the least significant selector bit.
func truthTable(nd *Node) (uint64, error) {
	k := len(nd.Fanin)
	if k > 6 {
		return 0, fmt.Errorf("logic: node %s has %d fanins, truth table limited to 6", nd.Name, k)
	}
	in := make([]uint64, k)
	for i := 0; i < k; i++ {
		var w uint64
		for r := 0; r < 64; r++ {
			if r>>uint(i)&1 == 1 {
				w |= 1 << uint(r)
			}
		}
		in[i] = w
	}
	tt := nd.EvalNode(in)
	rows := uint(1) << uint(k)
	if rows < 64 {
		tt &= (uint64(1) << rows) - 1
	}
	return tt, nil
}
