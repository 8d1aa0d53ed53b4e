package dualvdd_test

import (
	"context"
	"math"
	"testing"

	"dualvdd"
)

// bitEq compares two floats bit for bit — the warm path promises identity,
// not approximation.
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult asserts every deterministic FlowResult field matches bit
// for bit between a cold (standalone Flow) and a warm (shared prepared state)
// run. Runtime and SimTime are wall clock and Circuit is local-only — those
// three are the documented exceptions.
func requireSameResult(t *testing.T, label string, cold, warm *dualvdd.FlowResult) {
	t.Helper()
	if cold.Algorithm != warm.Algorithm {
		t.Fatalf("%s: algorithm %q vs %q", label, cold.Algorithm, warm.Algorithm)
	}
	if !bitEq(cold.Power, warm.Power) {
		t.Errorf("%s: power %v vs %v", label, cold.Power, warm.Power)
	}
	if !bitEq(cold.ImprovePct, warm.ImprovePct) {
		t.Errorf("%s: improve %v vs %v", label, cold.ImprovePct, warm.ImprovePct)
	}
	if !bitEq(cold.LowRatio, warm.LowRatio) {
		t.Errorf("%s: low ratio %v vs %v", label, cold.LowRatio, warm.LowRatio)
	}
	if !bitEq(cold.AreaIncrease, warm.AreaIncrease) {
		t.Errorf("%s: area %v vs %v", label, cold.AreaIncrease, warm.AreaIncrease)
	}
	if !bitEq(cold.WorstSlack, warm.WorstSlack) {
		t.Errorf("%s: slack %v vs %v", label, cold.WorstSlack, warm.WorstSlack)
	}
	if cold.Gates != warm.Gates || cold.LowGates != warm.LowGates ||
		cold.LCs != warm.LCs || cold.Sized != warm.Sized {
		t.Errorf("%s: counts (g=%d lg=%d lc=%d sz=%d) vs (g=%d lg=%d lc=%d sz=%d)", label,
			cold.Gates, cold.LowGates, cold.LCs, cold.Sized,
			warm.Gates, warm.LowGates, warm.LCs, warm.Sized)
	}
	if cold.STAEvals != warm.STAEvals {
		t.Errorf("%s: sta evals %d vs %d", label, cold.STAEvals, warm.STAEvals)
	}
	if cold.CandEvals != warm.CandEvals {
		t.Errorf("%s: cand evals %d vs %d", label, cold.CandEvals, warm.CandEvals)
	}
}

// TestWarmMatchesColdAcrossPoints is the cold/warm differential: one
// WarmDesign serves several low rails in sequence, and every result must be
// bit-identical to a standalone Flow run prepared fresh at that rail. The
// sweep runs the points in one order and the cold oracle another (reversed),
// so any state leaking from point to point on the shared engine shows up.
func TestWarmMatchesColdAcrossPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow")
	}
	ctx := context.Background()
	const circuit = "rot"
	vlows := []float64{3.3, 4.3, 3.7}

	warmFlow := dualvdd.New(dualvdd.WithSimWords(64))
	wd, err := warmFlow.PrepareWarmBenchmark(ctx, circuit)
	if err != nil {
		t.Fatalf("prepare warm: %v", err)
	}

	warm := make(map[float64][]*dualvdd.FlowResult)
	for _, vlow := range vlows {
		res, err := wd.RunAt(ctx, []float64{5.0, vlow}, nil, nil)
		if err != nil {
			t.Fatalf("warm run at %.1f: %v", vlow, err)
		}
		warm[vlow] = res
	}

	for i := len(vlows) - 1; i >= 0; i-- {
		vlow := vlows[i]
		flow := dualvdd.New(dualvdd.WithSimWords(64), dualvdd.WithVoltages(5.0, vlow))
		d, err := flow.PrepareBenchmark(ctx, circuit)
		if err != nil {
			t.Fatalf("prepare cold at %.1f: %v", vlow, err)
		}
		cold, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatalf("cold run at %.1f: %v", vlow, err)
		}
		if len(cold) != len(warm[vlow]) {
			t.Fatalf("at %.1f: %d cold results vs %d warm", vlow, len(cold), len(warm[vlow]))
		}
		for j := range cold {
			requireSameResult(t, cold[j].Algorithm, cold[j], warm[vlow][j])
		}
	}

	if got := wd.Runs(); got != int64(len(vlows)*3) {
		t.Errorf("Runs() = %d, want %d", got, len(vlows)*3)
	}
}

// TestWarmCancelRestoresBaseline cancels a warm run mid-flight and checks the
// shared state still produces bit-identical results afterwards — the
// Rollback-on-every-path contract.
func TestWarmCancelRestoresBaseline(t *testing.T) {
	ctx := context.Background()
	wd, err := dualvdd.New(dualvdd.WithSimWords(16)).PrepareWarmBenchmark(ctx, "rot")
	if err != nil {
		t.Fatalf("prepare warm: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := wd.RunAt(cancelled, []float64{5.0, 4.3}, nil, nil); err == nil {
		t.Fatal("cancelled run succeeded")
	}

	res, err := wd.RunAt(ctx, []float64{5.0, 4.3}, []dualvdd.Algorithm{dualvdd.AlgoDscale}, nil)
	if err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	flow := dualvdd.New(dualvdd.WithSimWords(16), dualvdd.WithVoltages(5.0, 4.3))
	d, err := flow.PrepareBenchmark(ctx, "rot")
	if err != nil {
		t.Fatalf("prepare cold: %v", err)
	}
	cold, err := d.RunAlgorithm(ctx, dualvdd.AlgoDscale)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	requireSameResult(t, "Dscale-after-cancel", cold, res[0])
}

// TestWarmSweepMatchesColdSweep is the end-to-end warm path: the same sweep
// run cold on one Local and warm (LocalWarmPrep + SweepWarm) on another must
// produce bit-identical rows, with every warm point flagged and the prep
// metrics accounting for one build per circuit and one reuse for every other
// point.
func TestWarmSweepMatchesColdSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	ctx := context.Background()
	sweep := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("z4ml", "rot"),
		Base:     dualvdd.Config{SimWords: 64},
		Axes:     dualvdd.Axes{VDDL: []float64{3.3, 3.7, 4.3}},
	}

	cold := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	coldRes, err := sweep.Run(ctx, cold)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if cerr := cold.Close(ctx); cerr != nil {
		t.Fatalf("close cold: %v", cerr)
	}

	warm := dualvdd.NewLocal(dualvdd.LocalWorkers(2),
		dualvdd.LocalWarmPrep(len(sweep.Circuits)))
	warmRes, err := sweep.Run(ctx, warm, dualvdd.SweepWarm(true))
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}

	if len(warmRes) != len(coldRes) {
		t.Fatalf("%d warm results vs %d cold", len(warmRes), len(coldRes))
	}
	for i := range coldRes {
		cs, ws := coldRes[i].Status, warmRes[i].Status
		if cs == nil || ws == nil {
			t.Fatalf("point %d: nil status (cold=%v warm=%v)", i, cs == nil, ws == nil)
		}
		if cs.Warm {
			t.Errorf("point %d: cold run flagged warm", i)
		}
		if !ws.Warm {
			t.Errorf("point %d: warm run not flagged", i)
		}
		if len(ws.Results) != len(cs.Results) {
			t.Fatalf("point %d: %d warm results vs %d cold", i, len(ws.Results), len(cs.Results))
		}
		for j := range cs.Results {
			label := coldRes[i].Point.Circuit.Benchmark + "/" + cs.Results[j].Algorithm
			requireSameResult(t, label, cs.Results[j], ws.Results[j])
		}
	}

	m := warm.Metrics()
	points := len(warmRes)
	if m.PrepBuilds != int64(len(sweep.Circuits)) {
		t.Errorf("PrepBuilds = %d, want %d (one per circuit)", m.PrepBuilds, len(sweep.Circuits))
	}
	if m.PrepReuses != int64(points-len(sweep.Circuits)) {
		t.Errorf("PrepReuses = %d, want %d", m.PrepReuses, points-len(sweep.Circuits))
	}
	if m.PrepGroups != len(sweep.Circuits) {
		t.Errorf("PrepGroups = %d, want %d", m.PrepGroups, len(sweep.Circuits))
	}
	if cerr := warm.Close(ctx); cerr != nil {
		t.Fatalf("close warm: %v", cerr)
	}
}
