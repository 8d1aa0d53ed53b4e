package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/graph"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

var lib = cell.Compass06()

// buildChainTree builds a circuit with one deep chain (critical) and a
// shallow side branch (slack), both feeding POs:
//
//	a -> inv x depth -> po0 (critical)
//	b -> inv -> inv   -> po1 (slack)
func buildChainTree(depth int) *netlist.Circuit {
	c := netlist.New("chaintree")
	a := c.AddPI("a")
	b := c.AddPI("b")
	inv := lib.Smallest(cell.FINV)
	s := a
	for i := 0; i < depth; i++ {
		_, s = c.AddGate(fmt.Sprintf("deep%d", i), inv, s)
	}
	c.AddPO("po0", s)
	_, t1 := c.AddGate("side0", inv, b)
	_, t2 := c.AddGate("side1", inv, t1)
	c.AddPO("po1", t2)
	return c
}

// entryPoint runs one algorithm on an engine and returns its result.
type entryPoint = func(*sta.Incremental, Options) (*Result, error)

// runAlone adapts Run to one named algorithm.
func runAlone(name string) entryPoint {
	return func(inc *sta.Incremental, opts Options) (*Result, error) {
		var res *Result
		err := Run(inc, []string{name}, opts, func(_ int, r *Result) error {
			res = r
			return nil
		})
		return res, err
	}
}

var (
	runCVS    = runAlone("CVS")
	runDscale = runAlone("Dscale")
	runGscale = runAlone("Gscale")
)

// runFresh runs algo on c the way a cold run does: on a fresh incremental
// engine under tspec, weighting with the activity table of a words×64-vector
// simulation of c at seed 1.
func runFresh(t *testing.T, algo entryPoint, c *netlist.Circuit, tspec float64, opts Options, words int) (*Result, error) {
	t.Helper()
	inc, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	act, err := sim.Run(context.Background(), c, words, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Activities = act
	return algo(inc, opts)
}

// tspecOf returns the circuit's own critical delay (the paper's constraint).
func tspecOf(t *testing.T, c *netlist.Circuit) float64 {
	t.Helper()
	d, err := sta.MinDelay(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCVSLowersSlackSideOnly(t *testing.T) {
	c := buildChainTree(10)
	tspec := tspecOf(t, c)
	res, err := runFresh(t, runCVS, c, tspec, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The side branch has huge slack (depth 2 vs 10) and must be lowered;
	// the deep chain has zero slack and must stay high.
	for _, g := range c.Gates {
		low := g.Volt == cell.VLow
		if g.Name[:4] == "side" && !low {
			t.Errorf("slack gate %s not lowered", g.Name)
		}
		if g.Name[:4] == "deep" && low {
			t.Errorf("critical gate %s lowered", g.Name)
		}
	}
	if n := c.NumLowGates(); n != 2 {
		t.Fatalf("lowered %d gates, want 2", n)
	}
	// The TCB is the critical PO-driving gate: it borders the outputs and
	// cannot take Vlow.
	if len(res.TCB) != 1 || c.Gates[res.TCB[0]].Name != fmt.Sprintf("deep%d", 9) {
		t.Fatalf("TCB = %v", res.TCB)
	}
}

func TestCVSClusterInvariant(t *testing.T) {
	// After CVS, every low gate's consumers must all be low or POs (the
	// paper's clustering rule that makes level restoration unnecessary).
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 8, 120)
	tspec := 1.08 * tspecOf(t, c) // give it some uniform slack to work with
	if _, err := runFresh(t, runCVS, c, tspec, DefaultOptions(), 1); err != nil {
		t.Fatal(err)
	}
	assertClusterInvariant(t, c)
	assertTiming(t, c, tspec)
}

func assertClusterInvariant(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	fan := c.BuildFanouts()
	for gi, g := range c.Gates {
		if g.Dead || g.Volt != cell.VLow {
			continue
		}
		for _, cn := range fan.Conns[c.GateSignal(gi)] {
			cg := c.Gates[cn.Gate]
			if cg.Volt != cell.VLow && !cg.IsLC {
				t.Fatalf("low gate %s drives high gate %s without level restoration",
					g.Name, cg.Name)
			}
		}
	}
}

func assertTiming(t *testing.T, c *netlist.Circuit, tspec float64) {
	t.Helper()
	tm, err := sta.Analyze(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Meets(1e-9) {
		t.Fatalf("timing violated: %.6f > %.6f", tm.WorstArrival, tspec)
	}
}

// randomCircuit builds a random mapped DAG over the default library.
func randomCircuit(rng *rand.Rand, nPI, nGates int) *netlist.Circuit {
	c := netlist.New("rand")
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	funcs := []cell.Func{
		cell.FINV, cell.FNAND2, cell.FNOR2, cell.FAND2, cell.FOR2,
		cell.FXOR2, cell.FNAND3, cell.FAOI21, cell.FMUX21,
	}
	consumed := make(map[netlist.Signal]bool)
	for k := 0; k < nGates; k++ {
		fn := funcs[rng.Intn(len(funcs))]
		cells := lib.CellsOf(fn)
		cl := cells[rng.Intn(len(cells))]
		ins := make([]netlist.Signal, cl.NumInputs())
		for pin := range ins {
			s := netlist.Signal(rng.Intn(c.NumSignals()))
			ins[pin] = s
			consumed[s] = true
		}
		c.AddGate(fmt.Sprintf("g%d", k), cl, ins...)
	}
	nPO := 0
	for s := netlist.Signal(nPI); int(s) < c.NumSignals(); s++ {
		if !consumed[s] {
			c.AddPO(fmt.Sprintf("po%d", nPO), s)
			nPO++
		}
	}
	return c
}

func TestDscaleInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 10, 150)
		tspec := 1.1 * tspecOf(t, c)
		opts := DefaultOptions()
		before := measurePower(t, c, opts, 32)
		if _, err := runFresh(t, runDscale, c, tspec, opts, 32); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := measurePower(t, c, opts, 32)
		assertTiming(t, c, tspec)
		assertLCDiscipline(t, c)
		if after > before {
			t.Fatalf("seed %d: Dscale increased power %.3g -> %.3g", seed, before, after)
		}
	}
}

// assertLCDiscipline checks level-converter structure after Dscale: every
// low→high boundary crosses a converter, every converter is fed by a low
// gate and feeds at least one consumer, and no converter feeds a low gate
// (those connections must have been bypassed).
func assertLCDiscipline(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	fan := c.BuildFanouts()
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		if g.Volt == cell.VLow && !g.IsLC {
			for _, cn := range fan.Conns[out] {
				cg := c.Gates[cn.Gate]
				if cg.Volt != cell.VLow && !cg.IsLC {
					t.Fatalf("low gate %s drives high gate %s directly", g.Name, cg.Name)
				}
			}
		}
		if g.IsLC {
			src := c.GateOf(g.In[0])
			if src == nil || src.Volt != cell.VLow {
				t.Fatalf("level converter %s not fed by a low gate", g.Name)
			}
			if fan.Degree(out) == 0 {
				t.Fatalf("dangling level converter %s survived cleanup", g.Name)
			}
		}
	}
}

// measurePower is the circuit's total power at opts.Fclk under a
// words×64-vector simulation at seed 1.
func measurePower(t *testing.T, c *netlist.Circuit, opts Options, words int) float64 {
	t.Helper()
	act, err := sim.Run(context.Background(), c, words, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	fanouts := c.BuildFanouts()
	loads := sta.Loads(c, lib, fanouts)
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		total += act[out] * opts.Fclk * (loads[out] + g.Cell.InternalCap) * 1e-12 * vdd * vdd
		if g.IsLC {
			total += lib.LCStaticPower
		}
	}
	return total
}

func TestDscaleBeatsOrEqualsCVS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		c1 := randomCircuit(rng, 9, 140)
		c2 := c1.Clone()
		tspec := 1.1 * tspecOf(t, c1)
		opts := DefaultOptions()
		if _, err := runFresh(t, runCVS, c1, tspec, opts, 32); err != nil {
			t.Fatal(err)
		}
		if _, err := runFresh(t, runDscale, c2, tspec, opts, 32); err != nil {
			t.Fatal(err)
		}
		pCVS := measurePower(t, c1, opts, 32)
		pDs := measurePower(t, c2, opts, 32)
		if pDs > pCVS+1e-15 {
			t.Fatalf("seed %d: Dscale power %.4g exceeds CVS power %.4g", seed, pDs, pCVS)
		}
		if c2.NumLowGates() < c1.NumLowGates() {
			t.Fatalf("seed %d: Dscale lowered fewer gates (%d) than CVS (%d)",
				seed, c2.NumLowGates(), c1.NumLowGates())
		}
	}
}

// TestSizingWeightSaturates pins the separator weight's range: a ratio past
// graph.Inf saturates there instead of converting out of int64's range (and
// being floored to the cheapest weight), and tiny ratios floor at 1.
func TestSizingWeightSaturates(t *testing.T) {
	for _, tc := range []struct {
		dArea, gain float64
		want        int64
	}{
		{2, 0.5, 4e6},
		{1e-9, 1e3, 1},
		{1, 1e-12, 1e18},
		{1, 1e-13, graph.Inf},
		{1, 1e-300, graph.Inf},
	} {
		if got := sizingWeight(tc.dArea, tc.gain); got != tc.want {
			t.Errorf("sizingWeight(%g, %g) = %d, want %d", tc.dArea, tc.gain, got, tc.want)
		}
	}
}

func TestGscaleInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 80))
		c := randomCircuit(rng, 10, 150)
		tspec := tspecOf(t, c) // zero slack: Gscale must create its own
		areaBefore := c.Area()
		opts := DefaultOptions()
		if _, err := runFresh(t, runGscale, c, tspec, opts, 32); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertTiming(t, c, tspec)
		assertClusterInvariant(t, c)
		if c.NumLCs() != 0 {
			t.Fatalf("seed %d: Gscale inserted level converters (cluster rule forbids them)", seed)
		}
		grow := c.Area()/areaBefore - 1
		if grow > opts.MaxAreaIncrease+1e-9 {
			t.Fatalf("seed %d: area grew %.3f, budget %.3f", seed, grow, opts.MaxAreaIncrease)
		}
		if grow < -1e-9 {
			t.Fatalf("seed %d: negative area increase %f", seed, grow)
		}
	}
}

func TestGscaleCreatesSlackOnBalancedTree(t *testing.T) {
	// A perfectly balanced XOR tree: every path critical, CVS gets nothing.
	// Gscale must up-size and lower a substantial share of the tree — the
	// paper's signature result on C499/C1355/mux.
	c := netlist.New("xtree")
	var layer []netlist.Signal
	for i := 0; i < 32; i++ {
		layer = append(layer, c.AddPI(fmt.Sprintf("d%d", i)))
	}
	xor := lib.Smallest(cell.FXOR2)
	k := 0
	for len(layer) > 1 {
		var next []netlist.Signal
		for i := 0; i+1 < len(layer); i += 2 {
			_, s := c.AddGate(fmt.Sprintf("x%d", k), xor, layer[i], layer[i+1])
			k++
			next = append(next, s)
		}
		layer = next
	}
	c.AddPO("parity", layer[0])
	tspec := tspecOf(t, c)

	opts := DefaultOptions()
	cvs := c.Clone()
	if _, err := runFresh(t, runCVS, cvs, tspec, opts, 1); err != nil {
		t.Fatal(err)
	}
	if n := cvs.NumLowGates(); n != 0 {
		t.Fatalf("balanced tree: CVS lowered %d gates, want 0", n)
	}
	res, err := runFresh(t, runGscale, c, tspec, opts, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLowGates() == 0 || res.Sized == 0 {
		t.Fatalf("Gscale failed to create slack on balanced tree: %+v", res)
	}
	assertTiming(t, c, tspec)
}

func TestGscaleRespectsTinyAreaBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 8, 100)
	tspec := tspecOf(t, c)
	opts := DefaultOptions()
	opts.MaxAreaIncrease = 0.005 // nearly nothing
	areaBefore := c.Area()
	if _, err := runFresh(t, runGscale, c, tspec, opts, 32); err != nil {
		t.Fatal(err)
	}
	if grow := c.Area()/areaBefore - 1; grow > 0.005+1e-9 {
		t.Fatalf("area grew %.4f over the 0.005 budget", grow)
	}
}

func TestGscaleMaxIterZeroStillRunsCVS(t *testing.T) {
	c := buildChainTree(10)
	tspec := tspecOf(t, c)
	opts := DefaultOptions()
	opts.MaxIter = 0
	if _, err := runFresh(t, runGscale, c, tspec, opts, 16); err != nil {
		t.Fatal(err)
	}
	if n := c.NumLowGates(); n < 2 {
		t.Fatalf("Gscale with maxIter=0 must still apply the initial CVS, lowered %d", n)
	}
}

func TestEvalCandidateAccountsLevelConverter(t *testing.T) {
	// A gate with one high consumer needs a converter: its candidate must
	// carry LC delay and pay LC power.
	c := netlist.New("lc")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("u", inv, a)
	_, s2 := c.AddGate("v", inv, s1)
	c.AddPO("o", s2)
	tspec := tspecOf(t, c) * 3 // plenty of slack
	inc, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	act, err := sim.Run(context.Background(), c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cand, _ := evalCandidate(inc, act, 20e6, 0)
	if !cand.needLC {
		t.Fatal("candidate u drives high gate v: must need a level converter")
	}
	if cand.lcDelay <= 0 {
		t.Fatal("LC delay not charged")
	}
	// The same gate with its consumer already low needs no converter.
	inc.SetVolt(1, cell.VLow)
	cand2, _ := evalCandidate(inc, act, 20e6, 0)
	if cand2.needLC || cand2.lcDelay != 0 {
		t.Fatal("no converter needed for low consumer")
	}
	if cand2.gain <= cand.gain {
		t.Fatal("converter-free candidate must have the larger net gain")
	}
}

func TestApplyLowInsertsSharedConverter(t *testing.T) {
	// One low driver, two high consumers: exactly one converter, shared.
	c := netlist.New("share")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s := c.AddGate("drv", inv, a)
	c.AddGate("c1", inv, s)
	c.AddGate("c2", inv, s)
	c.AddPO("o1", c.GateSignal(1))
	c.AddPO("o2", c.GateSignal(2))
	inc, err := sta.NewIncremental(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	act := make([]float64, c.NumSignals())
	act[int(s)] = 0.25
	opts := DefaultOptions()
	st := newDscaleState(inc, &opts, act)
	if err := st.applyLow(0); err != nil {
		t.Fatal(err)
	}
	act = st.act
	if got := c.NumLCs(); got != 1 {
		t.Fatalf("%d converters inserted, want 1 shared", got)
	}
	if got := act[c.NumSignals()-1]; got != 0.25 {
		t.Fatalf("converter activity not aliased from its source: %v", got)
	}
	if err := inc.Check(0); err != nil {
		t.Fatalf("incremental state stale after applyLow: %v", err)
	}
	lcSig := c.GateSignal(3)
	if c.Gates[1].In[0] != lcSig || c.Gates[2].In[0] != lcSig {
		t.Fatal("high consumers not rewired through the converter")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySelectNeverBeatsMWIS(t *testing.T) {
	// The MWIS formulation maximises per-round gain; greedy can only tie or
	// lose on the round's selected weight. End-to-end it should not win by
	// more than noise; assert it doesn't beat MWIS substantially.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 200))
		c1 := randomCircuit(rng, 9, 130)
		c2 := c1.Clone()
		tspec := 1.1 * tspecOf(t, c1)
		optsM := DefaultOptions()
		optsG := optsM
		optsG.GreedySelect = true
		if _, err := runFresh(t, runDscale, c1, tspec, optsM, 32); err != nil {
			t.Fatal(err)
		}
		if _, err := runFresh(t, runDscale, c2, tspec, optsG, 32); err != nil {
			t.Fatal(err)
		}
		pM := measurePower(t, c1, optsM, 32)
		pG := measurePower(t, c2, optsG, 32)
		if pG < pM*0.98 {
			t.Fatalf("seed %d: greedy (%.4g) beat MWIS (%.4g) by >2%%: selection bug", seed, pG, pM)
		}
	}
}

func TestAlgorithmsSelfCheckAgainstFullSTA(t *testing.T) {
	// Differential harness at algorithm level: with SelfCheck on, every
	// Dscale round, Gscale iteration and CVS run cross-validates the
	// incremental engine against a fresh sta.Analyze. This drives the
	// structural mutation paths (LC insertion, pin rewiring, converter
	// removal) the pure sta-level differential tests cannot reach.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 300))
		c := randomCircuit(rng, 9, 120)
		tspec := 1.1 * tspecOf(t, c)
		opts := DefaultOptions()
		opts.SelfCheck = true
		if _, err := runFresh(t, runDscale, c.Clone(), tspec, opts, 32); err != nil {
			t.Fatalf("seed %d: Dscale self-check: %v", seed, err)
		}
		if _, err := runFresh(t, runGscale, c.Clone(), tspec, opts, 32); err != nil {
			t.Fatalf("seed %d: Gscale self-check: %v", seed, err)
		}
		if _, err := runFresh(t, runCVS, c.Clone(), tspec, opts, 32); err != nil {
			t.Fatalf("seed %d: CVS self-check: %v", seed, err)
		}
	}
}

func TestIncrementalPathMatchesReferenceResults(t *testing.T) {
	// The incremental rewrite must not move a single number: re-run the
	// algorithms with SelfCheck (which keeps validating state against the
	// oracle) and make sure power-relevant outcomes (lowered gates, LCs,
	// sizing, iterations) are invariant across repeated runs.
	rng := rand.New(rand.NewSource(77))
	c := randomCircuit(rng, 10, 160)
	tspec := 1.1 * tspecOf(t, c)
	opts := DefaultOptions()
	// outcome is what a run leaves: its low gates and converters, read from
	// the scaled circuit, and its resized gates and iterations.
	type outcome struct{ low, lcs, sized, iterations int }
	run := func(algo entryPoint, o Options) outcome {
		ckt := c.Clone()
		res, err := runFresh(t, algo, ckt, tspec, o, 32)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{ckt.NumLowGates(), ckt.NumLCs(), res.Sized, res.Iterations}
	}
	chk := opts
	chk.SelfCheck = true
	for name, algo := range map[string]entryPoint{
		"Dscale": runDscale, "Gscale": runGscale, "CVS": runCVS,
	} {
		if a, b := run(algo, opts), run(algo, chk); a != b {
			t.Fatalf("%s: self-checked run diverged: %+v vs %+v", name, a, b)
		}
	}
}

// TestRunSharesCVSAcrossAlgorithms runs a list of algorithms, in an order
// with a repeat, through one Run on one engine, which clusters once and
// continues each algorithm from the post-CVS mark. Every result and every
// algorithm's event stream must equal a run of that algorithm alone on a
// fresh engine. Run refuses unknown names and a list without KeepJournal,
// and a context cancelled between continuations ends the list.
func TestRunSharesCVSAcrossAlgorithms(t *testing.T) {
	net, err := mcnc.Generate("C880")
	if err != nil {
		t.Fatal(err)
	}
	mres, err := mapper.Map(net, lib, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	c := mres.Circuit
	opts := DefaultOptions()
	names := []string{"Gscale", "CVS", "Dscale", "Dscale"}
	var events []Event
	opts.Observer = func(ev Event) { events = append(events, ev) }

	var want []*Result
	var wantEvents [][]Event
	for _, name := range names {
		events = nil
		res, err := runFresh(t, runAlone(name), c.Clone(), mres.Tspec, opts, 32)
		if err != nil {
			t.Fatalf("%s alone: %v", name, err)
		}
		if name != "CVS" && res.Iterations == 0 {
			t.Fatalf("%s alone did nothing past CVS", name)
		}
		want = append(want, res)
		wantEvents = append(wantEvents, events)
	}

	shared := c.Clone()
	inc, err := sta.NewIncremental(shared, lib, mres.Tspec)
	if err != nil {
		t.Fatal(err)
	}
	act, err := sim.Run(context.Background(), shared, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Activities = act
	opts.KeepJournal = true
	events = nil
	base, before := inc.Checkpoint(), inc.Evals()
	var sum int64
	err = Run(inc, names, opts, func(i int, res *Result) error {
		if !reflect.DeepEqual(res, want[i]) {
			t.Errorf("%s (#%d): shared result %+v, alone %+v", names[i], i, res, want[i])
		}
		if !reflect.DeepEqual(events, wantEvents[i]) {
			t.Errorf("%s (#%d): %d shared events differ from %d alone", names[i], i, len(events), len(wantEvents[i]))
		}
		events = nil
		sum += res.STAEvals
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The engine ran the CVS clustering once, not once per algorithm.
	if got, cvs := inc.Evals()-before, want[1].STAEvals; got != sum-int64(len(names)-1)*cvs {
		t.Errorf("engine ran %d evaluations for results summing to %d with CVS at %d", got, sum, cvs)
	}
	inc.Rollback(base)

	noop := func(int, *Result) error { return nil }
	if err := Run(inc, []string{"CVS", "Qscale"}, opts, noop); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm: err %v", err)
	}
	unjournaled := opts
	unjournaled.KeepJournal = false
	if err := Run(inc, names, unjournaled, noop); err == nil || !strings.Contains(err.Error(), "KeepJournal") {
		t.Errorf("list without KeepJournal: err %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts.Ctx = ctx
	err = Run(inc, names, opts, func(i int, _ *Result) error {
		if i > 0 {
			t.Errorf("%s (#%d) ran after the cancel", names[i], i)
		}
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled between continuations: err %v, want context.Canceled", err)
	}
}

// TestActivityTableMustCoverSignals pins the entry points' input check: an
// activity table with a missing or extra entry (or none at all) is an error,
// not an index panic inside the run.
func TestActivityTableMustCoverSignals(t *testing.T) {
	c := buildChainTree(6)
	tspec := tspecOf(t, c)
	opts := DefaultOptions()
	n := c.NumSignals()
	for name, algo := range map[string]entryPoint{"CVS": runCVS, "Dscale": runDscale, "Gscale": runGscale} {
		for _, act := range [][]float64{nil, make([]float64, n-1), make([]float64, n+1)} {
			inc, err := sta.NewIncremental(c, lib, tspec)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Activities = act
			if _, err := algo(inc, o); err == nil || !strings.Contains(err.Error(), "activity table") {
				t.Fatalf("%s with %d activities for %d signals: err %v, want an activity table error", name, len(act), n, err)
			}
		}
	}
}

func TestTCBDefinition(t *testing.T) {
	// Paper §2: a TCB node (1) violates timing if scaled and (2) has a
	// low-voltage fanout (or drives the boundary). Verify on the chain-tree.
	c := buildChainTree(6)
	tspec := tspecOf(t, c)
	res, err := runFresh(t, runCVS, c, tspec, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range res.TCB {
		g := c.Gates[gi]
		if g.Volt == cell.VLow {
			t.Fatalf("TCB gate %s is low", g.Name)
		}
		out := c.GateSignal(gi)
		if delta := tm.ArrivalWith(gi, g.Cell, g.Volt+1, tm.Load[out]) - tm.Arrival[out]; tm.Slack(out)-delta >= 1e-9 {
			t.Fatalf("TCB gate %s could actually be scaled (slack %.4f, delta %.4f)",
				g.Name, tm.Slack(out), delta)
		}
	}
}

// TestDscaleCandidateCacheDifferential runs Dscale with SelfCheck on mapped
// MCNC circuits at two and three rails: every round, dscaleState.verify
// cross-checks the incremental candidate cache and the maintained MWIS
// adjacency against from-scratch rebuilds, and the engine against a fresh
// analysis. Each circuit runs twice: committing every round, as a cold run
// does, and under KeepJournal as the list Dscale, Gscale, Dscale, as a warm
// point does. There absorb reads a journal that spans rounds, and the second
// Dscale starts after a Rollback of the first's converters; both must report
// what the committing run reports. This is the acceptance harness of the
// dirty-set maintenance.
func TestDscaleCandidateCacheDifferential(t *testing.T) {
	names := []string{"z4ml", "b9", "C880", "alu2", "sct"}
	if testing.Short() {
		names = names[:2]
	}
	libs := []struct {
		name string
		lib  *cell.Library
	}{{"2rails", lib}, {"3rails", cell.Compass06Rails([]float64{5, 4.3, 3.3})}}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			net, err := mcnc.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range libs {
				t.Run(l.name, func(t *testing.T) {
					mres, err := mapper.Map(net, l.lib, 1.2)
					if err != nil {
						t.Fatal(err)
					}
					c := mres.Circuit
					act, err := sim.Run(context.Background(), c, 64, 1)
					if err != nil {
						t.Fatal(err)
					}
					opts := DefaultOptions()
					opts.SelfCheck = true
					opts.Activities = act
					kept := c.Clone()
					inc, err := sta.NewIncremental(c, l.lib, mres.Tspec)
					if err != nil {
						t.Fatal(err)
					}
					res, err := runDscale(inc, opts)
					if err != nil {
						t.Fatalf("Dscale self-check on %s: %v", name, err)
					}
					if res.CandEvals <= 0 {
						t.Fatal("candidate evaluation counter not maintained")
					}
					// The cache can never evaluate more than the rescan loop
					// did: live gates per round plus the initial full pass.
					bound := int64(c.NumLiveGates()) * int64(res.Iterations+1)
					if res.CandEvals > bound {
						t.Fatalf("CandEvals %d exceeds the full-rescan bound %d", res.CandEvals, bound)
					}

					kinc, err := sta.NewIncremental(kept, l.lib, mres.Tspec)
					if err != nil {
						t.Fatal(err)
					}
					opts.KeepJournal = true
					list := []string{"Dscale", "Gscale", "Dscale"}
					err = Run(kinc, list, opts, func(i int, r *Result) error {
						if list[i] == "Dscale" && !reflect.DeepEqual(r, res) {
							t.Errorf("Dscale #%d under KeepJournal: %+v, committing run %+v", i, r, res)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("self-check under KeepJournal on %s: %v", name, err)
					}
				})
			}
		})
	}
}

// TestDscaleBypassFixpoint pins what bypassRedundantLCs leaves behind after a
// Dscale run: no live level converter without consumers, and no
// converter-fed pin of a live reduced-rail gate that would still pass its
// bypass check. Each check runs between a Checkpoint and a Rollback, so the
// probe leaves the scaled circuit as Dscale left it.
func TestDscaleBypassFixpoint(t *testing.T) {
	railSets := [][]float64{{5, 3.2}, {5, 3.6}, {5, 4.3, 3.3}}
	survivors := 0
	for _, name := range []string{"vda", "apex6", "dalu", "k2", "C3540"} {
		net, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rails := range railSets {
			l := cell.Compass06Rails(rails)
			mres, err := mapper.Map(net, l, 1.2)
			if err != nil {
				t.Fatal(err)
			}
			c := mres.Circuit
			inc, err := sta.NewIncremental(c, l, mres.Tspec)
			if err != nil {
				t.Fatal(err)
			}
			act, err := sim.Run(context.Background(), c, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Activities = act
			res, err := runDscale(inc, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, rails, err)
			}
			st := newDscaleState(inc, &opts, res.Act)
			fan := inc.Fanouts()
			for gi, g := range c.Gates {
				switch {
				case g.Dead:
				case g.IsLC:
					if fan.Degree(c.GateSignal(gi)) == 0 {
						t.Errorf("%s %v: converter %s has no consumers", name, rails, g.Name)
					}
					survivors++
				case g.Volt != cell.VHigh:
					for pin, s := range g.In {
						if drv := c.GateOf(s); drv == nil || !drv.IsLC || drv.Dead {
							continue
						}
						mark := inc.Checkpoint()
						if st.tryBypass(gi, pin) {
							t.Errorf("%s %v: pin %d of %s still bypasses its converter", name, rails, pin, g.Name)
						}
						inc.Rollback(mark)
					}
				}
			}
			if err := inc.Check(1e-9); err != nil {
				t.Errorf("%s %v: %v", name, rails, err)
			}
		}
	}
	if survivors == 0 {
		t.Fatal("no level converter survived on any case; the fixpoint checks are vacuous")
	}
}

// TestDscaleInnerLoopAllocations pins the steady-state allocation behavior of
// the Dscale inner machinery: candidate evaluation is allocation-free, and
// the greedy-selection conflict tracking reuses its bitset scratch.
func TestDscaleInnerLoopAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 9, 140)
	tspec := 1.3 * tspecOf(t, c)
	inc, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.25
	}
	st := newDscaleState(inc, &opts, act)

	var gis []int
	for gi, g := range c.Gates {
		if !g.Dead && !g.IsLC {
			gis = append(gis, gi)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		gi := gis[i%len(gis)]
		i++
		if _, ok := evalCandidate(inc, act, opts.Fclk, gi); !ok {
			t.Fatal("evalCandidate refused a live gate")
		}
	})
	if avg > 0 {
		t.Fatalf("evalCandidate allocates %.1f objects per call, want 0", avg)
	}

	cands := st.gather()
	if len(cands) == 0 {
		t.Skip("no candidates on this circuit shape")
	}
	st.greedyIndependent(cands) // warm the scratch buffers
	avg = testing.AllocsPerRun(50, func() {
		st.greedyIndependent(cands)
	})
	// One allocation remains per call: the returned chosen-set copy.
	if avg > 2 {
		t.Fatalf("greedyIndependent allocates %.1f objects per call after warm-up, want <= 2", avg)
	}
}

// TestDscaleCandidateEvalsDropOnLargeCircuits pins the point of the
// incremental candidate maintenance: on the big circuits, total cache
// re-evaluations stay well below what the per-round full rescan paid
// (live gates × (rounds+1)), i.e. the per-round evaluation count drops
// super-linearly as rounds stop touching most of the circuit.
func TestDscaleCandidateEvalsDropOnLargeCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the largest suite circuits")
	}
	for _, name := range []string{"rot", "C7552", "des"} {
		t.Run(name, func(t *testing.T) {
			net, err := mcnc.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mapper.Map(net, lib, 1.2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runFresh(t, runDscale, mres.Circuit, mres.Tspec, DefaultOptions(), 256)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 2 {
				t.Skipf("only %d rounds; nothing to amortise", res.Iterations)
			}
			full := int64(mres.Circuit.NumLiveGates()) * int64(res.Iterations+1)
			t.Logf("%s: %d live gates, %d rounds: candEvals %d vs full-rescan %d (%.1fx drop)",
				name, mres.Circuit.NumLiveGates(), res.Iterations, res.CandEvals, full,
				float64(full)/float64(res.CandEvals))
			if res.CandEvals*2 > full {
				t.Fatalf("candidate cache saved under 2x vs the rescan: %d of %d", res.CandEvals, full)
			}
		})
	}
}
