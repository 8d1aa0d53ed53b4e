package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// checkEquivalent simulates the logic network and the mapped circuit over
// random vectors and requires identical PO behaviour.
func checkEquivalent(t *testing.T, n *logic.Network, res *Result, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 16; trial++ {
		piWords := make([]uint64, len(n.PIs))
		for i := range piWords {
			piWords[i] = rng.Uint64()
		}
		wantPO, _, err := n.Eval(piWords, false)
		if err != nil {
			t.Fatalf("logic eval: %v", err)
		}
		// The mapped circuit preserves PI order.
		gotPO, err := sim.Eval(res.Circuit, piWords)
		if err != nil {
			t.Fatalf("netlist eval: %v", err)
		}
		for i := range wantPO {
			if wantPO[i] != gotPO[i] {
				t.Fatalf("trial %d: PO %s mismatch: logic %016x mapped %016x",
					trial, n.POs[i].Name, wantPO[i], gotPO[i])
			}
		}
	}
}

func mustMap(t *testing.T, n *logic.Network) *Result {
	t.Helper()
	res, err := Map(n, cell.Compass06(), 1.2)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatalf("mapped circuit invalid: %v", err)
	}
	return res
}

func TestMapSingleAND(t *testing.T) {
	n := logic.New("and2")
	a := n.AddPI("a")
	b := n.AddPI("b")
	o := n.AddNode("o", []logic.Signal{a, b}, []logic.Cube{"11"})
	n.AddPO("o", o)
	res := mustMap(t, n)
	if got := res.Circuit.NumLiveGates(); got != 1 {
		t.Fatalf("AND2 mapped to %d gates, want 1", got)
	}
	if fn := res.Circuit.Gates[0].Cell.Function; fn != cell.FAND2 {
		t.Fatalf("AND2 mapped to %s", fn)
	}
	checkEquivalent(t, n, res, 1)
}

func TestMapXORUsesXORCell(t *testing.T) {
	n := logic.New("xor2")
	a := n.AddPI("a")
	b := n.AddPI("b")
	o := n.AddNode("o", []logic.Signal{a, b}, []logic.Cube{"10", "01"})
	n.AddPO("o", o)
	res := mustMap(t, n)
	if got := res.Circuit.NumLiveGates(); got != 1 {
		t.Fatalf("XOR2 mapped to %d gates, want 1 (the XOR cell)", got)
	}
	if fn := res.Circuit.Gates[0].Cell.Function; fn != cell.FXOR2 {
		t.Fatalf("XOR2 mapped to %s, want XOR2", fn)
	}
	checkEquivalent(t, n, res, 2)
}

func TestMapMUXUsesMuxCell(t *testing.T) {
	n := logic.New("mux")
	a := n.AddPI("a")
	b := n.AddPI("b")
	s := n.AddPI("s")
	// out = a!s + bs with fanin order (a, b, s).
	o := n.AddNode("o", []logic.Signal{a, b, s}, []logic.Cube{"1-0", "-11"})
	n.AddPO("o", o)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 3)
	if got := res.Circuit.NumLiveGates(); got != 1 {
		t.Fatalf("MUX mapped to %d gates, want 1", got)
	}
}

func TestMapInverterChainCancels(t *testing.T) {
	n := logic.New("invinv")
	a := n.AddPI("a")
	x := n.AddNode("x", []logic.Signal{a}, []logic.Cube{"0"})
	y := n.AddNode("y", []logic.Signal{x}, []logic.Cube{"0"})
	n.AddPO("y", y)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 4)
	// Double inversion cancels structurally; a single buffer-like mapping or
	// direct PI feed is acceptable, but never two inverters.
	if got := res.Circuit.NumLiveGates(); got > 1 {
		t.Fatalf("double inverter mapped to %d gates, want <= 1", got)
	}
}

func TestMapConstantPO(t *testing.T) {
	n := logic.New("const")
	n.AddPI("a")
	c1 := n.AddNode("c1", nil, []logic.Cube{""})
	c0 := n.AddNode("c0", nil, nil)
	n.AddPO("one", c1)
	n.AddPO("zero", c0)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 5)
	if got := res.Circuit.NumLiveGates(); got != 2 {
		t.Fatalf("constant POs mapped to %d gates, want 2 tie cells", got)
	}
}

func TestMapPOFedByPI(t *testing.T) {
	n := logic.New("wire")
	a := n.AddPI("a")
	buf := n.AddNode("b", []logic.Signal{a}, []logic.Cube{"1"})
	n.AddPO("o", buf)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 6)
	if got := res.Circuit.NumLiveGates(); got != 0 {
		t.Fatalf("PI-fed PO mapped to %d gates, want 0 after buffer collapse", got)
	}
}

func TestMapSharedFanout(t *testing.T) {
	// x = a&b feeds two consumers; the shared node must stay explicit.
	n := logic.New("shared")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	x := n.AddNode("x", []logic.Signal{a, b}, []logic.Cube{"11"})
	y := n.AddNode("y", []logic.Signal{x, c}, []logic.Cube{"11"})
	z := n.AddNode("z", []logic.Signal{x, c}, []logic.Cube{"1-", "-1"})
	n.AddPO("y", y)
	n.AddPO("z", z)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 7)
}

func TestMapFullAdderEquivalence(t *testing.T) {
	n := logic.New("fa")
	a := n.AddPI("a")
	b := n.AddPI("b")
	ci := n.AddPI("ci")
	sum := n.AddNode("sum", []logic.Signal{a, b, ci},
		[]logic.Cube{"100", "010", "001", "111"})
	co := n.AddNode("co", []logic.Signal{a, b, ci},
		[]logic.Cube{"11-", "-11", "1-1"})
	n.AddPO("sum", sum)
	n.AddPO("co", co)
	res := mustMap(t, n)
	checkEquivalent(t, n, res, 8)
}

// randomNetwork builds a random SOP network for fuzzing the mapper.
func randomNetwork(rng *rand.Rand, nPI, nNodes int) *logic.Network {
	n := logic.New("rand")
	for i := 0; i < nPI; i++ {
		n.AddPI(pickName("i", i))
	}
	var sigs []logic.Signal
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, logic.Signal(i))
	}
	for k := 0; k < nNodes; k++ {
		nin := 1 + rng.Intn(4)
		if nin > len(sigs) {
			nin = len(sigs)
		}
		fanin := make([]logic.Signal, 0, nin)
		seen := map[logic.Signal]bool{}
		for len(fanin) < nin {
			s := sigs[rng.Intn(len(sigs))]
			if !seen[s] {
				seen[s] = true
				fanin = append(fanin, s)
			}
		}
		ncubes := 1 + rng.Intn(3)
		cubes := make([]logic.Cube, 0, ncubes)
		for c := 0; c < ncubes; c++ {
			lits := make([]byte, len(fanin))
			nonDash := false
			for i := range lits {
				switch rng.Intn(3) {
				case 0:
					lits[i] = '0'
					nonDash = true
				case 1:
					lits[i] = '1'
					nonDash = true
				default:
					lits[i] = '-'
				}
			}
			if !nonDash {
				lits[rng.Intn(len(lits))] = '1'
			}
			cubes = append(cubes, logic.Cube(lits))
		}
		sigs = append(sigs, n.AddNode(pickName("n", k), fanin, cubes))
	}
	// Expose the last few signals as POs.
	for i := 0; i < 4 && i < len(sigs); i++ {
		s := sigs[len(sigs)-1-i]
		n.AddPO(pickName("o", i), s)
	}
	return n
}

func pickName(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

func TestMapRandomNetworksEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 3+rng.Intn(6), 5+rng.Intn(25))
		res, err := Map(n, cell.Compass06(), 1.2)
		if err != nil {
			t.Fatalf("seed %d: Map: %v", seed, err)
		}
		checkEquivalent(t, n, res, seed+100)
	}
}

func TestMapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := randomNetwork(rng, 6, 30)
	lib := cell.Compass06()
	r1, err := Map(n, lib, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Map(n, lib, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Circuit.NumLiveGates() != r2.Circuit.NumLiveGates() || r1.MinDelay != r2.MinDelay {
		t.Fatalf("mapping is not deterministic: %d/%.6f vs %d/%.6f",
			r1.Circuit.NumLiveGates(), r1.MinDelay, r2.Circuit.NumLiveGates(), r2.MinDelay)
	}
	for i := range r1.Circuit.Gates {
		if r1.Circuit.Gates[i].Cell != r2.Circuit.Gates[i].Cell {
			t.Fatalf("gate %d differs between runs: %s vs %s",
				i, r1.Circuit.Gates[i].Cell.Name, r2.Circuit.Gates[i].Cell.Name)
		}
	}
}

func TestAreaRecoveryKeepsTimingAndSavesArea(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := randomNetwork(rng, 8, 60)
	lib := cell.Compass06()
	r0, _, err := minDelayCover(n, lib)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Map(n, lib, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Circuit.Area() >= r0.Area() {
		t.Fatalf("area recovery did not reduce area: %.2f -> %.2f",
			r0.Area(), r1.Circuit.Area())
	}
	tm, err := sta.Analyze(r1.Circuit, lib, r1.Tspec)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Meets(1e-9) {
		t.Fatalf("recovered circuit misses timing: %.4f > %.4f", tm.WorstArrival, r1.Tspec)
	}
	// The recovered critical path should sit close to the constraint — this
	// is the precondition that makes CVS non-trivial (critical paths have no
	// slack to burn on voltage scaling).
	if tm.WorstArrival < 0.9*r1.Tspec {
		t.Fatalf("recovery left too much slack: %.4f of %.4f", tm.WorstArrival, r1.Tspec)
	}
	checkEquivalent(t, n, r1, 11)
}

// recoverAreaFull is the area recovery RecoverArea replaced, kept as its
// reference oracle: the same decisions, read from one full sta.Analyze after
// every accepted downsize.
func recoverAreaFull(ckt *netlist.Circuit, lib *cell.Library, tspec, eps float64) (float64, error) {
	t, err := sta.Analyze(ckt, lib, tspec)
	if err != nil {
		return 0, err
	}
	order, err := ckt.TopoOrder()
	if err != nil {
		return 0, err
	}
	for pass := 0; pass < 16; pass++ {
		changed := 0
		for i := len(order) - 1; i >= 0; i-- {
			gi := order[i]
			g := ckt.Gates[gi]
			smaller := lib.Downsize(g.Cell)
			if smaller == nil {
				continue
			}
			out := ckt.GateSignal(gi)
			newArr := 0.0
			for pin, s := range g.In {
				if a := t.Arrival[s] + smaller.Delay(pin, t.Load[out], lib.Derate(g.Volt)); a > newArr {
					newArr = a
				}
			}
			if newArr-t.Arrival[out] <= t.Slack(out)-eps {
				g.Cell = smaller
				changed++
				if t, err = sta.Analyze(ckt, lib, tspec); err != nil {
					return 0, err
				}
			}
		}
		if changed == 0 {
			break
		}
	}
	if !t.Meets(eps) {
		return 0, fmt.Errorf("area recovery broke timing (%.4f > %.4f)", t.WorstArrival, tspec)
	}
	return t.WorstArrival, nil
}

// TestRecoverAreaMatchesFullAnalysis runs RecoverArea and the full-analysis
// reference on the same minimum-delay netlists and requires identical cell
// bindings and worst arrivals, bit for bit.
func TestRecoverAreaMatchesFullAnalysis(t *testing.T) {
	lib := cell.Compass06()
	downsized := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 3+rng.Intn(6), 5+rng.Intn(25))
		ckt, minDelay, err := minDelayCover(n, lib)
		if err != nil {
			t.Fatalf("seed %d: minDelayCover: %v", seed, err)
		}
		for _, sf := range []float64{1.0, 1.1, 1.2, 1.5} {
			tspec := minDelay * sf
			want, got := ckt.Clone(), ckt.Clone()
			wantArr, err := recoverAreaFull(want, lib, tspec, timingEps)
			if err != nil {
				t.Fatalf("seed %d slack %.1f: reference: %v", seed, sf, err)
			}
			gotArr, err := RecoverArea(got, lib, tspec, timingEps)
			if err != nil {
				t.Fatalf("seed %d slack %.1f: RecoverArea: %v", seed, sf, err)
			}
			if math.Float64bits(gotArr) != math.Float64bits(wantArr) {
				t.Fatalf("seed %d slack %.1f: worst arrival %x, reference %x", seed, sf, gotArr, wantArr)
			}
			for i, g := range want.Gates {
				if got.Gates[i].Cell != g.Cell {
					t.Fatalf("seed %d slack %.1f: gate %s bound to %s, reference %s",
						seed, sf, g.Name, got.Gates[i].Cell.Name, g.Cell.Name)
				}
				if g.Cell != ckt.Gates[i].Cell {
					downsized++
				}
			}
		}
	}
	if downsized == 0 {
		t.Fatal("no gate was downsized; the differential compared nothing")
	}
	t.Logf("%d downsizes compared", downsized)
}
