package netlist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dualvdd/internal/cell"
)

var lib = cell.Compass06()

// chain builds PI -> INV -> INV -> ... -> PO with n inverters.
func chain(n int) *Circuit {
	c := New("chain")
	s := c.AddPI("in")
	inv := lib.Smallest(cell.FINV)
	for i := 0; i < n; i++ {
		_, s = c.AddGate(gname(i), inv, s)
	}
	c.AddPO("out", s)
	return c
}

func gname(i int) string {
	return "g" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestSignalNumbering(t *testing.T) {
	c := New("t")
	a := c.AddPI("a")
	b := c.AddPI("b")
	gi, out := c.AddGate("x", lib.Smallest(cell.FNAND2), a, b)
	if a != 0 || b != 1 {
		t.Fatalf("PI signals = %d,%d", a, b)
	}
	if out != 2 || gi != 0 {
		t.Fatalf("gate signal = %d index %d", out, gi)
	}
	if !c.IsPI(a) || c.IsPI(out) {
		t.Fatal("IsPI misclassifies")
	}
	if c.GateIndex(out) != 0 || c.GateIndex(a) != -1 {
		t.Fatal("GateIndex misclassifies")
	}
	if c.SignalName(a) != "a" || c.SignalName(out) != "x" {
		t.Fatal("SignalName wrong")
	}
}

func TestAddPIAfterGatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddPI after AddGate must panic (would renumber signals)")
		}
	}()
	c := New("t")
	a := c.AddPI("a")
	c.AddGate("x", lib.Smallest(cell.FINV), a)
	c.AddPI("b")
}

func TestTopoOrderChain(t *testing.T) {
	c := chain(10)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("ordered %d gates, want 10", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatal("chain order must be strictly increasing by construction")
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	c := New("cyc")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	nand := lib.Smallest(cell.FNAND2)
	_, s1 := c.AddGate("g1", inv, a)
	gi2, s2 := c.AddGate("g2", nand, s1, s1)
	_, s3 := c.AddGate("g3", inv, s2)
	c.Gates[gi2].In[1] = s3 // back edge: g3 -> g2
	c.AddPO("o", s3)
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("cycle undetected")
	}
}

func TestValidateCatchesPinMismatch(t *testing.T) {
	c := New("bad")
	a := c.AddPI("a")
	g, _ := c.AddGate("x", lib.Smallest(cell.FNAND2), a) // 1 pin for 2-input cell
	_ = g
	if err := c.Validate(); err == nil {
		t.Fatal("pin-count mismatch undetected")
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	c := New("dup")
	a := c.AddPI("a")
	c.AddGate("x", lib.Smallest(cell.FINV), a)
	c.AddGate("x", lib.Smallest(cell.FINV), a)
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate gate name undetected")
	}
}

func TestValidateCatchesDeadReference(t *testing.T) {
	c := chain(3)
	c.Gates[1].Dead = true
	if err := c.Validate(); err == nil {
		t.Fatal("reference to dead gate undetected")
	}
}

func TestDeadGatesExcludedEverywhere(t *testing.T) {
	c := New("t")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("g1", inv, a)
	gi2, _ := c.AddGate("g2", inv, a)
	c.AddPO("o", s1)
	c.Gates[gi2].Dead = true
	if got := c.NumLiveGates(); got != 1 {
		t.Fatalf("NumLiveGates = %d, want 1", got)
	}
	if got := c.Area(); got != inv.Area {
		t.Fatalf("Area = %v, want one inverter", got)
	}
	fan := c.BuildFanouts()
	if len(fan.Conns[a]) != 1 {
		t.Fatalf("dead gate still appears in fanouts: %v", fan.Conns[a])
	}
	order, err := c.TopoOrder()
	if err != nil || len(order) != 1 {
		t.Fatalf("topo over dead gates: %v %v", order, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := chain(5)
	cl := c.Clone()
	cl.Gates[0].Volt = cell.VLow
	cl.Gates[1].Dead = true
	cl.Gates[2].In[0] = 0
	if c.Gates[0].Volt == cell.VLow || c.Gates[1].Dead {
		t.Fatal("clone shares gate state with original")
	}
	if c.NumLowGates() != 0 {
		t.Fatal("original gained low gates via clone")
	}
}

func TestFanoutDegreeCountsPOs(t *testing.T) {
	c := New("t")
	a := c.AddPI("a")
	_, s := c.AddGate("g", lib.Smallest(cell.FINV), a)
	c.AddPO("o1", s)
	c.AddPO("o2", s)
	fan := c.BuildFanouts()
	if fan.Degree(s) != 2 {
		t.Fatalf("degree = %d, want 2 POs", fan.Degree(s))
	}
}

// TestRandomCircuitInvariants is a property test: random DAG circuits always
// validate, their topological order respects edges, and a clone equals the
// original in every field.
func TestRandomCircuitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("rand")
		nPI := 2 + rng.Intn(5)
		for i := 0; i < nPI; i++ {
			c.AddPI("pi" + string(rune('a'+i)))
		}
		nand := lib.Smallest(cell.FNAND2)
		inv := lib.Smallest(cell.FINV)
		for k := 0; k < 30; k++ {
			n := c.NumSignals()
			if rng.Intn(2) == 0 {
				c.AddGate(gname(k), inv, Signal(rng.Intn(n)))
			} else {
				c.AddGate(gname(k), nand, Signal(rng.Intn(n)), Signal(rng.Intn(n)))
			}
		}
		c.AddPO("o", Signal(c.NumSignals()-1))
		if err := c.Validate(); err != nil {
			return false
		}
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[int]int)
		for i, gi := range order {
			pos[gi] = i
		}
		for gi, g := range c.Gates {
			for _, s := range g.In {
				if di := c.GateIndex(s); di >= 0 && pos[di] >= pos[gi] {
					return false
				}
			}
		}
		return reflect.DeepEqual(c.Clone(), c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fanoutsEqual compares two consumer tables element for element — the
// invariant the incremental timing engine relies on for bit-exact load sums.
func fanoutsEqual(a, b *Fanouts) bool {
	if len(a.Conns) != len(b.Conns) || !slices.Equal(a.POs, b.POs) {
		return false
	}
	for s := range a.Conns {
		if !slices.Equal(a.Conns[s], b.Conns[s]) {
			return false
		}
	}
	return true
}

func TestFanoutsIncrementalMatchesBuild(t *testing.T) {
	// Random edit scripts (rewires, gate additions, deletions) maintained
	// through Connect/Disconnect/Grow must leave the table identical — in
	// element order, not just as a set — to a fresh BuildFanouts.
	rng := rand.New(rand.NewSource(17))
	inv := lib.Smallest(cell.FINV)
	nand := lib.Smallest(cell.FNAND2)
	for trial := 0; trial < 30; trial++ {
		c := New("fan")
		for i := 0; i < 4; i++ {
			c.AddPI("pi" + string(rune('a'+i)))
		}
		for k := 0; k < 25; k++ {
			n := c.NumSignals()
			if rng.Intn(2) == 0 {
				c.AddGate(gname(k), inv, Signal(rng.Intn(n)))
			} else {
				c.AddGate(gname(k), nand, Signal(rng.Intn(n)), Signal(rng.Intn(n)))
			}
		}
		c.AddPO("o", Signal(c.NumSignals()-1))
		fan := c.BuildFanouts()
		for edit := 0; edit < 40; edit++ {
			switch rng.Intn(3) {
			case 0: // rewire a random pin upstream
				gi := len(c.PIs) + rng.Intn(len(c.Gates))
				g := c.Gates[gi-len(c.PIs)]
				if g.Dead {
					continue
				}
				pin := rng.Intn(len(g.In))
				to := Signal(rng.Intn(gi)) // strictly upstream keeps the DAG
				cn := Conn{Gate: gi - len(c.PIs), Pin: pin}
				fan.Disconnect(g.In[pin], cn)
				fan.Connect(to, cn)
				g.In[pin] = to
			case 1: // append a gate
				src := Signal(rng.Intn(c.NumSignals()))
				gi, _ := c.AddGate(gname(100+edit+trial*50), inv, src)
				fan.Grow(c.NumSignals())
				fan.Connect(src, Conn{Gate: gi, Pin: 0})
			case 2: // kill a consumer-free gate
				for gi, g := range c.Gates {
					if !g.Dead && fan.Degree(c.GateSignal(gi)) == 0 {
						g.Dead = true
						for pin, s := range g.In {
							fan.Disconnect(s, Conn{Gate: gi, Pin: pin})
						}
						break
					}
				}
			}
			if !fanoutsEqual(fan, c.BuildFanouts()) {
				t.Fatalf("trial %d edit %d: incremental table diverged from BuildFanouts", trial, edit)
			}
		}
	}
}

// TestFanoutsEditKeepsNeighbourList edits signal a's consumer list after a
// fresh build, where the lists of a and its neighbour b share one backing
// array: a Connect, a Disconnect and a Connect on a must leave b's list as
// it was, and the table must equal a fresh build of the edited circuit.
func TestFanoutsEditKeepsNeighbourList(t *testing.T) {
	c := New("neighbours")
	a, b := c.AddPI("a"), c.AddPI("b")
	inv, nand := lib.Smallest(cell.FINV), lib.Smallest(cell.FNAND2)
	_, s0 := c.AddGate("g0", nand, a, b)
	c.AddGate("g1", inv, b)
	c.AddGate("g2", inv, a)
	c.AddPO("o", s0)
	fan := c.BuildFanouts()
	want := append([]Conn(nil), fan.Conns[b]...)

	gi, _ := c.AddGate("g3", inv, a) // Connect past the list's end
	fan.Grow(c.NumSignals())
	fan.Connect(a, Conn{Gate: gi, Pin: 0})
	c.Gates[2].Dead = true // Disconnect g2, which drives nothing
	fan.Disconnect(a, Conn{Gate: 2, Pin: 0})
	gi, _ = c.AddGate("g4", inv, a) // Connect into the freed slot
	fan.Grow(c.NumSignals())
	fan.Connect(a, Conn{Gate: gi, Pin: 0})

	if got := fan.Conns[b]; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("editing a's consumers changed b's: %v, want %v", got, want)
	}
	if !fanoutsEqual(fan, c.BuildFanouts()) {
		t.Fatal("edited table differs from a fresh build")
	}
}

func TestFanoutsDisconnectMissingIsNoop(t *testing.T) {
	c := chain(3)
	fan := c.BuildFanouts()
	fan.Disconnect(0, Conn{Gate: 99, Pin: 0})
	if !fanoutsEqual(fan, c.BuildFanouts()) {
		t.Fatal("disconnect of a missing connection mutated the table")
	}
}

// fanoutCone is the map-based reference for AppendFanoutCone: the set of
// gates reachable downstream from gate gi, gi included.
func fanoutCone(f *Fanouts, c *Circuit, gi int) map[int]bool {
	seen := map[int]bool{gi: true}
	stack := []int{gi}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cn := range f.Conns[c.GateSignal(g)] {
			if !seen[cn.Gate] {
				seen[cn.Gate] = true
				stack = append(stack, cn.Gate)
			}
		}
	}
	return seen
}

func TestFanoutCone(t *testing.T) {
	// pi -> g0 -> g1 -> g2 -> po, with g3 off to the side from pi.
	c := New("cone")
	pi := c.AddPI("pi")
	inv := lib.Smallest(cell.FINV)
	_, s0 := c.AddGate("g0", inv, pi)
	_, s1 := c.AddGate("g1", inv, s0)
	_, s2 := c.AddGate("g2", inv, s1)
	c.AddGate("g3", inv, pi)
	c.AddPO("o", s2)
	fan := c.BuildFanouts()
	down := fanoutCone(fan, c, 0)
	if !down[0] || !down[1] || !down[2] || down[3] {
		t.Fatalf("fanout cone of g0 = %v", down)
	}
}

func TestAppendFanoutConeMatchesMapVersion(t *testing.T) {
	c := New("cone")
	cl := &cell.Cell{Name: "inv", Function: cell.FINV, InputCap: []float64{0.01}}
	a := c.AddPI("a")
	// Diamond with a tail: a -> g0 -> {g1, g2} -> g3 -> g4.
	_, s0 := c.AddGate("g0", cl, a)
	_, s1 := c.AddGate("g1", cl, s0)
	_, s2 := c.AddGate("g2", cl, s0)
	g3cl := &cell.Cell{Name: "nd2", Function: cell.FNAND2, InputCap: []float64{0.01, 0.01}}
	_, s3 := c.AddGate("g3", g3cl, s1, s2)
	_, s4 := c.AddGate("g4", cl, s3)
	c.AddPO("o", s4)
	fan := c.BuildFanouts()

	var seen BitSet
	var out, stack []int
	for gi := range c.Gates {
		want := fanoutCone(fan, c, gi)
		seen.Grow(len(c.Gates))
		seen.Reset()
		out, stack = fan.AppendFanoutCone(c, gi, &seen, out[:0], stack)
		if len(out) != len(want) {
			t.Fatalf("gate %d: cone size %d, map version %d", gi, len(out), len(want))
		}
		for _, g := range out {
			if !want[g] {
				t.Fatalf("gate %d: cone gained gate %d", gi, g)
			}
			if !seen.Has(g) {
				t.Fatalf("gate %d: bitset missing cone member %d", gi, g)
			}
		}
	}
	if seen.Has(1 << 20) {
		t.Fatal("out-of-capacity index reads true")
	}
}
