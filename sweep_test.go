package dualvdd_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dualvdd"
)

// testSweep is the small grid the equivalence properties run on: 2 circuits
// × 2 VDDL × 2 algorithm sets = 8 points, each cheap enough to re-run
// standalone.
func testSweep() dualvdd.Sweep {
	base := dualvdd.DefaultConfig()
	base.SimWords = 32
	return dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("x2", "mux"),
		Base:     base,
		Axes: dualvdd.Axes{
			VDDL: []float64{4.3, 3.9},
			AlgorithmSets: [][]dualvdd.Algorithm{
				{dualvdd.AlgoCVS, dualvdd.AlgoDscale},
				{dualvdd.AlgoGscale},
			},
		},
	}
}

func TestSweepPointsExpansionOrder(t *testing.T) {
	s := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("x2", "mux"),
		Axes: dualvdd.Axes{
			VDDH:        []float64{5.0, 4.8},
			VDDL:        []float64{4.3, 3.9, 3.5},
			SlackFactor: []float64{1.2, 1.3},
			SimWords:    []int{64, 128},
			AlgorithmSets: [][]dualvdd.Algorithm{
				{dualvdd.AlgoCVS}, {dualvdd.AlgoGscale},
			},
		},
	}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 3 * 2 * 2 * 2
	if len(points) != want {
		t.Fatalf("expanded %d points, want %d", len(points), want)
	}
	// The documented nesting: circuit ▸ VDDH ▸ VDDL ▸ slack ▸ words ▸
	// algorithm set, rightmost fastest. Verify every point against the
	// div/mod decomposition of its index.
	dims := []int{2, 2, 3, 2, 2, 2}
	for i, pt := range points {
		if pt.Index != i {
			t.Fatalf("point %d carries index %d", i, pt.Index)
		}
		rest := i
		tuple := make([]int, len(dims))
		for d := len(dims) - 1; d >= 0; d-- {
			tuple[d] = rest % dims[d]
			rest /= dims[d]
		}
		if pt.Circuit != s.Circuits[tuple[0]] ||
			pt.Config.Rails[0] != s.Axes.VDDH[tuple[1]] ||
			pt.Config.Rails[1] != s.Axes.VDDL[tuple[2]] ||
			pt.Config.SlackFactor != s.Axes.SlackFactor[tuple[3]] ||
			pt.Config.SimWords != s.Axes.SimWords[tuple[4]] ||
			!reflect.DeepEqual(pt.Algorithms, s.Axes.AlgorithmSets[tuple[5]]) {
			t.Fatalf("point %d does not match tuple %v: %+v", i, tuple, pt)
		}
	}
	// Expansion is deterministic: a second call is identical.
	again, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Fatal("two Points() calls disagree")
	}
}

func TestSweepPointsDefaultsAndBase(t *testing.T) {
	// The zero Axes sweep exactly the base configuration per circuit, and a
	// zero Base means the paper defaults.
	s := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks("x2")}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("zero-axes sweep expanded to %d points", len(points))
	}
	if !reflect.DeepEqual(points[0].Config, dualvdd.DefaultConfig()) {
		t.Fatalf("zero base did not default: %+v", points[0].Config)
	}
	if !reflect.DeepEqual(points[0].Algorithms, dualvdd.Algorithms()) {
		t.Fatalf("nil algorithms did not default: %v", points[0].Algorithms)
	}
}

func TestSweepPointsRejectsDegenerateAxes(t *testing.T) {
	base := dualvdd.DefaultConfig()
	cases := []struct {
		name    string
		mutate  func(*dualvdd.Sweep)
		invalid bool // expect ErrInvalidConfig specifically
	}{
		{"vddl at vddh", func(s *dualvdd.Sweep) { s.Axes.VDDL = []float64{5.0} }, true},
		{"vddl above vddh", func(s *dualvdd.Sweep) { s.Axes.VDDL = []float64{5.5} }, true},
		{"zero vddl", func(s *dualvdd.Sweep) { s.Axes.VDDL = []float64{0} }, true},
		{"negative vddh", func(s *dualvdd.Sweep) { s.Axes.VDDH = []float64{-5} }, true},
		{"sub-1 slack", func(s *dualvdd.Sweep) { s.Axes.SlackFactor = []float64{0.8} }, true},
		{"zero words", func(s *dualvdd.Sweep) { s.Axes.SimWords = []int{0} }, true},
		{"empty algorithm set", func(s *dualvdd.Sweep) { s.Axes.AlgorithmSets = [][]dualvdd.Algorithm{{}} }, false},
		{"unknown algorithm", func(s *dualvdd.Sweep) { s.Axes.AlgorithmSets = [][]dualvdd.Algorithm{{"Qscale"}} }, false},
		{"no circuits", func(s *dualvdd.Sweep) { s.Circuits = nil }, false},
		{"ambiguous circuit", func(s *dualvdd.Sweep) {
			s.Circuits = []dualvdd.SweepCircuit{{Benchmark: "x2", BLIF: ".model x\n.end\n"}}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks("x2"), Base: base}
			tc.mutate(&s)
			_, err := s.Points()
			if err == nil {
				t.Fatal("degenerate sweep expanded without error")
			}
			if tc.invalid && !errors.Is(err, dualvdd.ErrInvalidConfig) {
				t.Fatalf("error %v does not wrap ErrInvalidConfig", err)
			}
			if n := strings.Count(err.Error(), "dualvdd: "); n != 1 {
				t.Fatalf("error %q names the package %d times, want once", err, n)
			}
		})
	}
}

// TestSweepExpansionProperties is the property-based layer over Points:
// random valid axes must always expand to the full cross product, in
// documented order, with every point individually valid and the expansion a
// pure function of the spec.
func TestSweepExpansionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(n int) int { return 1 + rng.Intn(n) }
	for trial := 0; trial < 50; trial++ {
		var axes dualvdd.Axes
		nh := pick(3)
		for i := 0; i < nh; i++ {
			axes.VDDH = append(axes.VDDH, 4.5+rng.Float64())
		}
		nl := pick(4)
		for i := 0; i < nl; i++ {
			axes.VDDL = append(axes.VDDL, 2.0+rng.Float64()*2.0)
		}
		ns := pick(3)
		for i := 0; i < ns; i++ {
			axes.SlackFactor = append(axes.SlackFactor, 1.0+rng.Float64())
		}
		nw := pick(3)
		for i := 0; i < nw; i++ {
			// Distinct by construction: per-axis duplicates would make the
			// cross product legitimately repeat points.
			axes.SimWords = append(axes.SimWords, 1+rng.Intn(64)+64*i)
		}
		all := dualvdd.Algorithms()
		na := pick(3)
		for i := 0; i < na; i++ {
			set := append([]dualvdd.Algorithm(nil), all[:i+1]...)
			axes.AlgorithmSets = append(axes.AlgorithmSets, set)
		}
		s := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks("x2", "b9"), Axes: axes}

		points, err := s.Points()
		if err != nil {
			t.Fatalf("trial %d: %v (axes %+v)", trial, err, axes)
		}
		want := 2 * nh * nl * ns * nw * na
		if len(points) != want {
			t.Fatalf("trial %d: %d points, want %d", trial, len(points), want)
		}
		seen := map[string]bool{}
		for i, pt := range points {
			if pt.Index != i {
				t.Fatalf("trial %d: point %d carries index %d", trial, i, pt.Index)
			}
			if err := pt.Job().Validate(); err != nil {
				t.Fatalf("trial %d: expanded point invalid: %v", trial, err)
			}
			key := fmt.Sprintf("%s|%v|%v|%v|%v", pt.Circuit.Benchmark, pt.Config.Rails,
				pt.Config.SlackFactor, pt.Config.SimWords, pt.Algorithms)
			if seen[key] {
				t.Fatalf("trial %d: duplicate point %s", trial, key)
			}
			seen[key] = true
		}
		again, err := s.Points()
		if err != nil || !reflect.DeepEqual(points, again) {
			t.Fatalf("trial %d: expansion not deterministic (%v)", trial, err)
		}
	}
}

// normalizeEvent strips the nondeterministic fields (wall clocks, the
// local-only Circuit pointer) so event streams can be digested and compared
// across runs.
func normalizeEvent(ev dualvdd.Event) dualvdd.Event {
	if er, ok := ev.(dualvdd.EventResult); ok && er.Result != nil {
		res := *er.Result
		res.Runtime, res.Circuit = 0, nil
		er.Result = &res
		return er
	}
	return ev
}

// digestEvents hashes a normalized event stream through the wire encoding.
func digestEvents(t *testing.T, events []dualvdd.Event) string {
	t.Helper()
	h := sha256.New()
	for _, ev := range events {
		b, err := dualvdd.MarshalEvent(normalizeEvent(ev))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepPointFlowEquivalence is the core sweep invariant: every expanded
// point, executed through the Runner at any worker count, is bit-identical —
// result rows and per-job event stream digest — to the same Config run as a
// standalone Flow. CI runs this under -race.
func TestSweepPointFlowEquivalence(t *testing.T) {
	ctx := context.Background()
	sweep := testSweep()
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}

	// The standalone truth: one Flow per point, with the observer capturing
	// the event stream the job log should reproduce.
	wantResults := make([][]*dualvdd.FlowResult, len(points))
	wantDigests := make([]string, len(points))
	for i, pt := range points {
		var events []dualvdd.Event
		flow := dualvdd.New(
			dualvdd.FromConfig(pt.Config),
			dualvdd.WithAlgorithms(pt.Algorithms...),
			dualvdd.WithObserver(func(ev dualvdd.Event) { events = append(events, ev) }),
		)
		d, err := flow.PrepareBenchmark(ctx, pt.Circuit.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		wantResults[i] = res
		wantDigests[i] = digestEvents(t, events)
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			l := dualvdd.NewLocal(dualvdd.LocalWorkers(workers))
			defer mustClose(t, l)
			results, err := sweep.Run(ctx, l)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(points) {
				t.Fatalf("sweep returned %d results for %d points", len(results), len(points))
			}
			for i, pr := range results {
				if !reflect.DeepEqual(pr.Point, points[i]) {
					t.Fatalf("result %d is out of input order: %+v", i, pr.Point)
				}
				if pr.Status.State != dualvdd.JobDone {
					t.Fatalf("point %d ended %s: %s", i, pr.Status.State, pr.Status.Error)
				}
				if len(pr.Status.Results) != len(wantResults[i]) {
					t.Fatalf("point %d: %d results, want %d", i, len(pr.Status.Results), len(wantResults[i]))
				}
				for k := range wantResults[i] {
					sameFlowResult(t, fmt.Sprintf("point %d %s", i, wantResults[i][k].Algorithm),
						pr.Status.Results[k], wantResults[i][k])
				}
				// The job's replayed event log digests identically to the
				// standalone observer stream.
				events, err := l.Watch(ctx, pr.Status.ID)
				if err != nil {
					t.Fatal(err)
				}
				var log []dualvdd.Event
				for ev := range events {
					log = append(log, ev)
				}
				if got := digestEvents(t, log); got != wantDigests[i] {
					t.Fatalf("point %d: event digest %s differs from standalone %s", i, got, wantDigests[i])
				}
			}
		})
	}
}

func TestSweepSecondRunServedFromCache(t *testing.T) {
	ctx := context.Background()
	sweep := testSweep()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	defer mustClose(t, l)

	first, err := sweep.Run(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Metrics()
	var events []dualvdd.Event
	var mu sync.Mutex
	second, err := sweep.Run(ctx, l, dualvdd.SweepObserver(func(ev dualvdd.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	after := l.Metrics()
	if after.STAEvals != before.STAEvals || after.CandEvals != before.CandEvals {
		t.Fatalf("second sweep recomputed: before %+v after %+v", before, after)
	}
	if hits := after.CacheHits - before.CacheHits; hits != int64(len(second)) {
		t.Fatalf("cache hits %d, want %d", hits, len(second))
	}
	for i := range second {
		if !second[i].Status.Cached {
			t.Fatalf("point %d not flagged cached", i)
		}
		for k := range first[i].Status.Results {
			sameFlowResult(t, fmt.Sprintf("point %d", i), second[i].Status.Results[k], first[i].Status.Results[k])
		}
	}
	// The observer saw one sweep_point per point plus one sweep_done with
	// the cached count.
	var pointEvents, doneEvents int
	for _, ev := range events {
		switch e := ev.(type) {
		case dualvdd.EventSweepPoint:
			pointEvents++
			if !e.Cached || e.Total != len(second) {
				t.Fatalf("sweep_point event: %+v", e)
			}
		case dualvdd.EventSweepDone:
			doneEvents++
			if e.Points != len(second) || e.Cached != len(second) || e.Circuits != 2 {
				t.Fatalf("sweep_done event: %+v", e)
			}
		}
	}
	if pointEvents != len(second) || doneEvents != 1 {
		t.Fatalf("observer saw %d sweep_point and %d sweep_done events", pointEvents, doneEvents)
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := dualvdd.NewLocal()
	defer mustClose(t, l)
	if _, err := testSweep().Run(ctx, l); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

func TestParetoMask(t *testing.T) {
	pts := []dualvdd.ParetoPoint{
		{Power: 10, WorstSlack: 0.5, LCs: 0}, // frontier: least power
		{Power: 12, WorstSlack: 0.9, LCs: 0}, // frontier: most slack
		{Power: 12, WorstSlack: 0.4, LCs: 1}, // dominated by 0 on all three
		{Power: 11, WorstSlack: 0.5, LCs: 0}, // dominated by 0 (strictly on power)
		{Power: 11, WorstSlack: 0.6, LCs: 2}, // frontier: its slack beats 0, its power beats 1
		{Power: 10, WorstSlack: 0.5, LCs: 0}, // duplicate of 0: twins keep each other
	}
	want := []bool{true, true, false, false, true, true}
	got := dualvdd.ParetoMask(pts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mask %v, want %v", got, want)
	}
	if len(dualvdd.ParetoMask(nil)) != 0 {
		t.Fatal("empty mask not empty")
	}
}

// TestParetoMaskNaN pins the NaN dominance rule: IEEE comparisons with NaN
// are all false, so a NaN-slack point used to survive every dominance check
// and sit on the frontier forever. A NaN objective is now always dominated —
// the point is excluded — and, equally important, it must not knock out any
// finite point.
func TestParetoMaskNaN(t *testing.T) {
	nan := math.NaN()
	pts := []dualvdd.ParetoPoint{
		{Power: 10, WorstSlack: nan, LCs: 0},  // NaN slack: excluded despite least power
		{Power: 12, WorstSlack: 0.9, LCs: 0},  // frontier
		{Power: nan, WorstSlack: 0.9, LCs: 0}, // NaN power: excluded
		{Power: 13, WorstSlack: 0.4, LCs: 0},  // dominated by 1 (finite points still compete)
		{Power: nan, WorstSlack: nan, LCs: 0}, // doubly NaN: excluded
	}
	want := []bool{false, true, false, false, false}
	if got := dualvdd.ParetoMask(pts); !reflect.DeepEqual(got, want) {
		t.Fatalf("mask %v, want %v", got, want)
	}
	// All-NaN input: nothing on the frontier, not "everything".
	all := []dualvdd.ParetoPoint{{Power: nan, WorstSlack: nan}, {Power: nan, WorstSlack: nan}}
	if got := dualvdd.ParetoMask(all); !reflect.DeepEqual(got, []bool{false, false}) {
		t.Fatalf("all-NaN mask %v, want [false false]", got)
	}
}

// TestSweepInlineCircuitLabels pins the blif#<index> disambiguation: a sweep
// over two inline models (which may even share a .model name) must report
// distinct circuit labels in its error messages, not "blif" for both.
func TestSweepInlineCircuitLabels(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(1))
	defer mustClose(t, l)
	s := dualvdd.Sweep{
		Circuits: []dualvdd.SweepCircuit{
			{BLIF: ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"},
			{BLIF: ".model t\n.inputs a\n.outputs f\n.names ghost f\n1 1\n.end\n"}, // invalid: undefined signal
		},
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS},
		// One point per circuit; the second fails to parse and names itself.
	}
	_, err := s.Run(ctx, l, dualvdd.SweepInFlight(1))
	if err == nil {
		t.Fatal("sweep over an invalid inline model succeeded")
	}
	if !strings.Contains(err.Error(), "blif#1") {
		t.Fatalf("error does not carry the positional inline label: %v", err)
	}
}
