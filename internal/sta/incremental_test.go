package sta_test

// Differential harness for the incremental timing engine: on every bundled
// MCNC/ISCAS stand-in circuit, randomized sequences of voltage and cell
// mutations (plus the structural level-converter operations Dscale performs)
// are applied through sta.Incremental, and the resulting arrival, required,
// slack and load annotations are compared against a fresh sta.Analyze — the
// reference oracle — to 1e-9, including after Rollback. The loads are also
// held to sta.Loads bit for bit after every step.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// diffEps is the differential tolerance. The engine recomputes every value
// with the same formula and operand order as Analyze, so matches are in fact
// bit-exact; 1e-9 keeps the assertion honest about what the tests guarantee.
const diffEps = 1e-9

func mapped(tb testing.TB, name string) (*netlist.Circuit, *cell.Library, float64) {
	tb.Helper()
	net, err := mcnc.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	lib := cell.Compass06()
	res, err := mapper.Map(net, lib, 1.2)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Circuit, lib, res.Tspec
}

func assertMatches(tb testing.TB, inc *sta.Incremental, what string) {
	tb.Helper()
	if err := inc.Check(diffEps); err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
}

// assertLoadsExact holds the engine's loads to sta.Loads over a fresh fanout
// table bit for bit — not to diffEps: warm power estimates read the engine's
// loads in place of recomputing them.
func assertLoadsExact(tb testing.TB, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, what string) {
	tb.Helper()
	want := sta.Loads(ckt, lib, ckt.BuildFanouts())
	if len(inc.Load) != len(want) {
		tb.Fatalf("%s: engine has %d loads, sta.Loads %d", what, len(inc.Load), len(want))
	}
	for s := range want {
		if math.Float64bits(inc.Load[s]) != math.Float64bits(want[s]) {
			tb.Fatalf("%s: load of signal %d is %v, sta.Loads gives %v", what, s, inc.Load[s], want[s])
		}
	}
}

// snapshot captures the full annotation for undo comparisons.
type snapshot struct {
	arrival, required, slack, load []float64
	worst                          float64
}

func snap(inc *sta.Incremental) snapshot {
	return snapshot{
		arrival:  append([]float64(nil), inc.Arrival...),
		required: append([]float64(nil), inc.Required...),
		slack:    slacks(inc),
		load:     append([]float64(nil), inc.Load...),
		worst:    inc.WorstArrival(),
	}
}

// slacks reads every signal's slack off the engine.
func slacks(inc *sta.Incremental) []float64 {
	s := make([]float64, len(inc.Arrival))
	for i := range s {
		s[i] = inc.Slack(netlist.Signal(i))
	}
	return s
}

func (s snapshot) equal(inc *sta.Incremental) error {
	cmp := func(what string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] == b[i] || (math.IsInf(a[i], 1) && math.IsInf(b[i], 1)) {
				continue
			}
			return fmt.Errorf("%s differs at signal %d: %v vs %v", what, i, a[i], b[i])
		}
		return nil
	}
	if err := cmp("arrival", s.arrival, inc.Arrival); err != nil {
		return err
	}
	if err := cmp("required", s.required, inc.Required); err != nil {
		return err
	}
	if err := cmp("slack", s.slack, slacks(inc)); err != nil {
		return err
	}
	if err := cmp("load", s.load, inc.Load); err != nil {
		return err
	}
	if s.worst != inc.WorstArrival() {
		return fmt.Errorf("worst arrival differs: %v vs %v", s.worst, inc.WorstArrival())
	}
	return nil
}

// mutate applies one random voltage or cell mutation through the engine.
func mutate(rng *rand.Rand, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library) {
	for tries := 0; tries < 20; tries++ {
		gi := rng.Intn(len(ckt.Gates))
		g := ckt.Gates[gi]
		if g.Dead || g.IsLC {
			continue
		}
		switch rng.Intn(4) {
		case 0, 1: // voltage flip
			if g.Volt == cell.VHigh {
				inc.SetVolt(gi, cell.VLow)
			} else {
				inc.SetVolt(gi, cell.VHigh)
			}
			return
		case 2: // upsize
			if up := lib.Upsize(g.Cell); up != nil {
				inc.SetCell(gi, up)
				return
			}
		case 3: // downsize
			if down := lib.Downsize(g.Cell); down != nil {
				inc.SetCell(gi, down)
				return
			}
		}
	}
}

func circuitsUnderTest(t *testing.T) []string {
	if testing.Short() {
		return []string{"z4ml", "b9", "C432", "C880", "alu2"}
	}
	return mcnc.Names()
}

func TestIncrementalDifferentialAllCircuits(t *testing.T) {
	for _, name := range circuitsUnderTest(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ckt, lib, tspec := mapped(t, name)
			inc, err := sta.NewIncremental(ckt, lib, tspec)
			if err != nil {
				t.Fatal(err)
			}
			assertMatches(t, inc, "fresh engine")
			assertLoadsExact(t, inc, ckt, lib, "fresh engine")
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			steps := 60
			if testing.Short() {
				steps = 25
			}
			for step := 0; step < steps; step++ {
				mutate(rng, inc, ckt, lib)
				assertLoadsExact(t, inc, ckt, lib, fmt.Sprintf("after %d mutations", step+1))
				if step%5 == 4 {
					assertMatches(t, inc, fmt.Sprintf("after %d mutations", step+1))
				}
			}
			assertMatches(t, inc, "after full mutation sequence")

			// Undo: a batch of mutations must roll back to the exact state,
			// and that state must still match the oracle.
			before := snap(inc)
			mark := inc.Checkpoint()
			for i := 0; i < 15; i++ {
				mutate(rng, inc, ckt, lib)
				assertLoadsExact(t, inc, ckt, lib, fmt.Sprintf("after %d mutations past checkpoint", i+1))
			}
			assertMatches(t, inc, "mutated past checkpoint")
			inc.Rollback(mark)
			if err := before.equal(inc); err != nil {
				t.Fatalf("rollback drifted: %v", err)
			}
			assertMatches(t, inc, "after rollback")
			assertLoadsExact(t, inc, ckt, lib, "after rollback")
		})
	}
}

func TestIncrementalStructuralOps(t *testing.T) {
	// Drive the structural primitives the Dscale flow uses — level-converter
	// insertion (AddGate + RewirePin), bypass rewiring, converter removal
	// (KillGate) — differentially, including rollback across structure.
	ckt, lib, tspec := mapped(t, "C880")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	fan := inc.Fanouts()

	inserted := 0
	for gi := 0; gi < len(ckt.Gates) && inserted < 8; gi++ {
		g := ckt.Gates[gi]
		out := ckt.GateSignal(gi)
		if g.Dead || g.IsLC || len(fan.Conns[out]) == 0 || rng.Intn(3) != 0 {
			continue
		}
		before := snap(inc)
		mark := inc.Checkpoint()

		// Emulate applyLow: lower the gate, insert a converter, rewire every
		// consumer through it.
		conns := append([]netlist.Conn(nil), fan.Conns[out]...)
		inc.SetVolt(gi, cell.VLow)
		assertLoadsExact(t, inc, ckt, lib, "after lowering")
		lcGi, lcSig := inc.AddGate(fmt.Sprintf("$lc_t%d", gi), lib.LevelConverter(), out)
		ckt.Gates[lcGi].IsLC = true
		assertLoadsExact(t, inc, ckt, lib, "after AddGate")
		for _, cn := range conns {
			if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
				t.Fatal(err)
			}
			assertLoadsExact(t, inc, ckt, lib, "after rewiring onto the LC")
		}
		assertMatches(t, inc, "after LC insertion")

		// Emulate the bypass: rewire the consumers back and kill the LC.
		for _, cn := range conns {
			if err := inc.RewirePin(cn.Gate, cn.Pin, out); err != nil {
				t.Fatal(err)
			}
			assertLoadsExact(t, inc, ckt, lib, "after rewiring past the LC")
		}
		if err := inc.KillGate(lcGi); err != nil {
			t.Fatal(err)
		}
		assertLoadsExact(t, inc, ckt, lib, "after KillGate")
		assertMatches(t, inc, "after bypass and kill")

		// Roll the whole structural episode back.
		inc.Rollback(mark)
		if err := before.equal(inc); err != nil {
			t.Fatalf("structural rollback drifted: %v", err)
		}
		if ckt.GateIndex(lcSig) >= 0 && len(ckt.Gates) > lcGi {
			t.Fatalf("rolled-back converter still present")
		}
		assertMatches(t, inc, "after structural rollback")
		assertLoadsExact(t, inc, ckt, lib, "after structural rollback")
		inserted++
	}
	if inserted == 0 {
		t.Fatal("no structural episodes exercised")
	}
}

func TestIncrementalChainedAddGateKeepsPriorities(t *testing.T) {
	// Stacking an added gate on top of another added gate must interpolate
	// priorities instead of colliding with a pre-existing gate: rewiring the
	// original consumers onto the top of the stack has to stay legal.
	ckt, lib, tspec := mapped(t, "b9")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	fan := inc.Fanouts()
	for gi := range ckt.Gates {
		out := ckt.GateSignal(gi)
		if ckt.Gates[gi].Dead || len(fan.Conns[out]) == 0 {
			continue
		}
		conns := append([]netlist.Conn(nil), fan.Conns[out]...)
		_, s1 := inc.AddGate("$buf1", lib.LevelConverter(), out)
		_, s2 := inc.AddGate("$buf2", lib.LevelConverter(), s1)
		for _, cn := range conns {
			if err := inc.RewirePin(cn.Gate, cn.Pin, s2); err != nil {
				t.Fatalf("rewire onto stacked gate rejected: %v", err)
			}
		}
		assertMatches(t, inc, "after stacked insertion")
		return
	}
	t.Fatal("no gate with consumers found")
}

func TestIncrementalRewireRejectsBackwardEdge(t *testing.T) {
	// Rewiring a pin to a signal downstream of the gate would create a cycle;
	// the engine must refuse rather than corrupt its propagation order.
	ckt, lib, tspec := mapped(t, "z4ml")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	order := inc.Order()
	first, last := order[0], order[len(order)-1]
	if err := inc.RewirePin(first, 0, ckt.GateSignal(last)); err == nil {
		t.Fatal("backward rewire accepted")
	}
	assertMatches(t, inc, "after rejected rewire")
}

func TestIncrementalEvalsStayLocal(t *testing.T) {
	// The engine's whole point: a single mutation must not visit the whole
	// circuit. On a large circuit, the average per-mutation evaluation count
	// must be well below the gate count.
	ckt, lib, tspec := mapped(t, "C880")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const muts = 200
	for i := 0; i < muts; i++ {
		mutate(rng, inc, ckt, lib)
	}
	perMut := float64(inc.Evals()) / muts
	if live := float64(ckt.NumLiveGates()); perMut > live/2 {
		t.Fatalf("propagation not local: %.1f evals per mutation on %d gates", perMut, int(live))
	}
}
