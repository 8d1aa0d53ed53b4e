package dualvdd_test

import (
	"context"
	"fmt"
	"math"
	"strings"
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
// run. Runtime is wall clock and Circuit is local-only — those two are the
// documented exceptions.
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
	if cold.SimTime != warm.SimTime {
		t.Errorf("%s: sim time %v vs %v", label, cold.SimTime, warm.SimTime)
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
	runs := 0
	for _, vlow := range vlows {
		res, err := wd.RunAt(ctx, []float64{5.0, vlow}, nil, nil)
		if err != nil {
			t.Fatalf("warm run at %.1f: %v", vlow, err)
		}
		warm[vlow] = res
		runs += len(res)
	}
	if runs != len(vlows)*3 {
		t.Errorf("RunAt returned %d results, want %d", runs, len(vlows)*3)
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
}

// TestWarmCancelRestoresBaseline cancels a warm run mid-flight, and stops
// another at an unknown algorithm after the one before it finished, and
// checks the shared state still produces bit-identical results afterwards —
// the Rollback-on-every-path contract.
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
	res, err := wd.RunAt(ctx, []float64{5.0, 4.3}, []dualvdd.Algorithm{dualvdd.AlgoCVS, "Qscale"}, nil)
	if err == nil || !strings.Contains(err.Error(), "Qscale") || len(res) != 1 {
		t.Fatalf("unknown algorithm after CVS: %d results, err %v; want CVS's result and an error naming Qscale", len(res), err)
	}

	res, err = wd.RunAt(ctx, []float64{5.0, 4.3}, []dualvdd.Algorithm{dualvdd.AlgoDscale}, nil)
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

// TestRunAtEventsMatchCold holds RunAt, which runs the CVS clustering once
// per point and continues each listed algorithm from it, to standalone cold
// runs of the same list, whatever its order or repeats: every result bit for
// bit, and the event stream (less preparation's EventMapped) digest for
// digest. One warm design per circuit serves every rail vector and list, as
// in a sweep.
func TestRunAtEventsMatchCold(t *testing.T) {
	ctx := context.Background()
	lists := [][]dualvdd.Algorithm{
		dualvdd.Algorithms(),
		{dualvdd.AlgoDscale, dualvdd.AlgoGscale},
		{dualvdd.AlgoGscale, dualvdd.AlgoCVS, dualvdd.AlgoDscale},
		{dualvdd.AlgoGscale, dualvdd.AlgoGscale, dualvdd.AlgoDscale, dualvdd.AlgoDscale},
	}
	railSets := [][]float64{{5, 4.3}, {5, 3.7}, {5, 4.3, 3.6}}
	for _, circuit := range []string{"x2", "rot", "C880"} {
		wd, err := dualvdd.New(dualvdd.WithSimWords(16)).PrepareWarmBenchmark(ctx, circuit)
		if err != nil {
			t.Fatalf("prepare warm %s: %v", circuit, err)
		}
		for _, rails := range railSets {
			var cold []dualvdd.Event
			record := func(ev dualvdd.Event) {
				if _, mapped := ev.(dualvdd.EventMapped); !mapped {
					cold = append(cold, ev)
				}
			}
			d, err := dualvdd.New(dualvdd.WithSimWords(16), dualvdd.WithRails(rails...),
				dualvdd.WithObserver(record)).PrepareBenchmark(ctx, circuit)
			if err != nil {
				t.Fatalf("prepare cold %s at %v: %v", circuit, rails, err)
			}
			for _, list := range lists {
				label := fmt.Sprintf("%s at %v running %v", circuit, rails, list)
				cold = nil
				want, err := dualvdd.New(dualvdd.WithAlgorithms(list...)).Run(ctx, d)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				var warm []dualvdd.Event
				got, err := wd.RunAt(ctx, rails, list, func(ev dualvdd.Event) { warm = append(warm, ev) })
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d warm results, %d cold", label, len(got), len(want))
				}
				for i := range want {
					requireSameResult(t, label+" "+want[i].Algorithm, want[i], got[i])
				}
				if digestEvents(t, warm) != digestEvents(t, cold) {
					t.Errorf("%s: warm event stream (%d events) differs from the cold one (%d)",
						label, len(warm), len(cold))
				}
			}
		}
	}
}

// TestDscaleRoundPowerIsResultPower holds the Power of the last Dscale
// round event to the Power of the Dscale result, bit for bit, cold
// (Design.RunAlgorithm) and warm (WarmDesign.RunAt), at two and three rails:
// a round event reports the estimate the result reports, and the last round
// leaves the circuit as the run does.
func TestDscaleRoundPowerIsResultPower(t *testing.T) {
	ctx := context.Background()
	railSets := [][]float64{{5, 4.3}, {5, 3.7}, {5, 4.3, 3.6}}
	circuits := []string{"b9", "rot", "C880", "apex6", "dalu", "k2"}
	if testing.Short() {
		circuits = circuits[:2]
	}
	// check finds the last Dscale round event in evs and compares its Power.
	check := func(label string, evs []dualvdd.Event, res *dualvdd.FlowResult) {
		t.Helper()
		var last *dualvdd.EventRoundDone
		for _, ev := range evs {
			if rd, ok := ev.(dualvdd.EventRoundDone); ok && rd.Algorithm == string(dualvdd.AlgoDscale) {
				last = &rd
			}
		}
		if last == nil {
			t.Fatalf("%s: Dscale ran no round", label)
		}
		if !bitEq(last.Power, res.Power) {
			t.Errorf("%s: round %d power %v, result power %v", label, last.Round, last.Power, res.Power)
		}
	}
	for _, circuit := range circuits {
		wd, err := dualvdd.New(dualvdd.WithSimWords(16)).PrepareWarmBenchmark(ctx, circuit)
		if err != nil {
			t.Fatalf("prepare warm %s: %v", circuit, err)
		}
		for _, rails := range railSets {
			label := fmt.Sprintf("%s at %v", circuit, rails)
			var cold []dualvdd.Event
			d, err := dualvdd.New(dualvdd.WithSimWords(16), dualvdd.WithRails(rails...),
				dualvdd.WithObserver(func(ev dualvdd.Event) { cold = append(cold, ev) })).PrepareBenchmark(ctx, circuit)
			if err != nil {
				t.Fatalf("%s: prepare cold: %v", label, err)
			}
			res, err := d.RunAlgorithm(ctx, dualvdd.AlgoDscale)
			if err != nil {
				t.Fatalf("%s: cold: %v", label, err)
			}
			check(label+" cold", cold, res)

			var warm []dualvdd.Event
			got, err := wd.RunAt(ctx, rails, []dualvdd.Algorithm{dualvdd.AlgoDscale},
				func(ev dualvdd.Event) { warm = append(warm, ev) })
			if err != nil {
				t.Fatalf("%s: warm: %v", label, err)
			}
			check(label+" warm", warm, got[0])
		}
	}
}

// flowOracle runs every point of the sweep as a standalone Flow — prepared
// from scratch at the point's own rails, the reference every runner row is
// held to — and returns the rows in expansion order.
func flowOracle(ctx context.Context, t *testing.T, s dualvdd.Sweep) []dualvdd.SweepPointResult {
	t.Helper()
	points, err := s.Points()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	rows := make([]dualvdd.SweepPointResult, len(points))
	for i, pt := range points {
		flow := dualvdd.New(dualvdd.FromConfig(pt.Config), dualvdd.WithAlgorithms(pt.Algorithms...))
		d, err := flow.PrepareBenchmark(ctx, pt.Circuit.Benchmark)
		if err != nil {
			t.Fatalf("point %d: prepare: %v", i, err)
		}
		res, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatalf("point %d: run: %v", i, err)
		}
		rows[i] = dualvdd.SweepPointResult{Point: pt, Status: &dualvdd.JobStatus{State: dualvdd.JobDone, Results: res}}
	}
	return rows
}

// TestWarmSweepMatchesColdSweep is the end-to-end warm path: a sweep on a
// Local runs every point on its circuit's shared prepared state, and its rows
// must be bit-identical to standalone Flow runs, with the prep metrics
// accounting for one build per circuit and one reuse for every other point.
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
	want := flowOracle(ctx, t, sweep)

	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	rows, err := sweep.Run(ctx, l)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	requireSameRows(t, want, rows)

	m := l.Metrics()
	if m.PrepBuilds != int64(len(sweep.Circuits)) {
		t.Errorf("PrepBuilds = %d, want %d (one per circuit)", m.PrepBuilds, len(sweep.Circuits))
	}
	if m.PrepReuses != int64(len(rows)-len(sweep.Circuits)) {
		t.Errorf("PrepReuses = %d, want %d", m.PrepReuses, len(rows)-len(sweep.Circuits))
	}
	if m.PrepGroups != len(sweep.Circuits) {
		t.Errorf("PrepGroups = %d, want %d", m.PrepGroups, len(sweep.Circuits))
	}
	if cerr := l.Close(ctx); cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
}

// TestLocalWarmGroupsConcurrent submits two circuits' points at once to a
// four-worker Local, so members of both warm-prep groups race for the group
// build and then run side by side, on the group's shared engine or on a
// private one when it is busy. Every result must still match a standalone
// Flow bit for bit, and each group must be built exactly once. CI runs it in
// a -race loop.
func TestLocalWarmGroupsConcurrent(t *testing.T) {
	ctx := context.Background()
	sweep := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("z4ml", "rot"),
		Base:     dualvdd.Config{SimWords: 16},
		Axes:     dualvdd.Axes{VDDL: []float64{3.3, 3.5, 3.7, 3.9, 4.1, 4.3}},
	}
	want := flowOracle(ctx, t, sweep)

	l := dualvdd.NewLocal(dualvdd.LocalWorkers(4))
	defer func() {
		if err := l.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	// Interleave the circuits so the first workers to dequeue hold members
	// of both groups.
	half := len(want) / 2
	ids := make([]dualvdd.JobID, len(want))
	for k := 0; k < len(want); k++ {
		i := k/2 + (k%2)*half
		id, err := l.Submit(ctx, want[i].Point.Job())
		if err != nil {
			t.Fatalf("submit point %d: %v", i, err)
		}
		ids[i] = id
	}
	got := make([]dualvdd.SweepPointResult, len(want))
	for i, id := range ids {
		st, err := l.Result(ctx, id)
		if err != nil {
			t.Fatalf("result point %d: %v", i, err)
		}
		if st.State != dualvdd.JobDone {
			t.Fatalf("point %d ended %s: %s", i, st.State, st.Error)
		}
		got[i] = dualvdd.SweepPointResult{Point: want[i].Point, Status: st}
	}
	requireSameRows(t, want, got)

	m := l.Metrics()
	if m.PrepBuilds != 2 || m.PrepReuses != 10 {
		t.Errorf("prep builds/reuses = %d/%d, want 2/10 (one build per circuit)", m.PrepBuilds, m.PrepReuses)
	}
}
