package dualvdd

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMergeDefaults pins the field-wise default rule that replaced the old
// all-or-nothing one: every zero field of a sweep Base inherits the paper's
// default individually, explicit values always survive, and zero-is-
// meaningful knobs (the greedy ablation booleans) pass through untouched.
func TestMergeDefaults(t *testing.T) {
	def := DefaultConfig()
	cases := []struct {
		name string
		base Config
		want Config
	}{
		{name: "zero base is the full default", base: Config{}, want: def},
		{
			// The shape the old rule broke on: one field set, the rest
			// silently zero — and the first point failed validation.
			name: "partial base inherits the rest",
			base: Config{Seed: 7},
			want: func() Config { c := def; c.Seed = 7; return c }(),
		},
		{
			name: "explicit values survive",
			base: Config{Rails: []float64{3.3, 2.4}, SlackFactor: 1.5, MaxAreaIncrease: 0.2,
				MaxIter: 3, SimWords: 64, Seed: 9, Fclk: 1e6},
			want: Config{Rails: []float64{3.3, 2.4}, SlackFactor: 1.5, MaxAreaIncrease: 0.2,
				MaxIter: 3, SimWords: 64, Seed: 9, Fclk: 1e6},
		},
		{
			name: "zero-is-meaningful knobs pass through",
			base: Config{GreedySelect: true, GreedySizing: true},
			want: func() Config {
				c := def
				c.GreedySelect, c.GreedySizing = true, true
				return c
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mergeDefaults(tc.base); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("mergeDefaults(%+v)\n got %+v\nwant %+v", tc.base, got, tc.want)
			}
		})
	}
}

// TestSweepPointsPartialBase is the end-to-end form of the pitfall: a Base
// that only sets what it cares about must expand into valid points instead of
// failing validation with zero voltages.
func TestSweepPointsPartialBase(t *testing.T) {
	s := Sweep{
		Circuits: SweepBenchmarks("rot"),
		Base:     Config{SimWords: 64, Seed: 11},
		Axes:     Axes{VDDL: []float64{3.3, 3.7}},
	}
	points, err := s.Points()
	if err != nil {
		t.Fatalf("partial base failed to expand: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	def := DefaultConfig()
	for i, p := range points {
		if p.Config.Rails[0] != def.Rails[0] {
			t.Fatalf("point %d: Vhigh = %g, want inherited default %g", i, p.Config.Rails[0], def.Rails[0])
		}
		if p.Config.SimWords != 64 || p.Config.Seed != 11 {
			t.Fatalf("point %d: explicit base fields lost: %+v", i, p.Config)
		}
		if err := p.Config.Validate(); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
}

// TestSweepCircuitLabelAt pins the inline-model label fix: every inline BLIF
// circuit gets its positional name, so two inline models never collide in
// events, errors, or table output. Benchmarks keep their real names.
func TestSweepCircuitLabelAt(t *testing.T) {
	if got := (SweepCircuit{Benchmark: "C880"}).labelAt(3); got != "C880" {
		t.Fatalf("benchmark label = %q", got)
	}
	blif := SweepCircuit{BLIF: ".model t\n.end\n"}
	if got := blif.labelAt(0); got != "blif#0" {
		t.Fatalf("inline label 0 = %q", got)
	}
	if got := blif.labelAt(7); got != "blif#7" {
		t.Fatalf("inline label 7 = %q", got)
	}
}

// TestSweepChainsFollowWarmGroups pins Run's partition: every chain walks
// one circuit entry's warm-prep group in index order, the chains cover every
// point exactly once, and spare in-flight slots cut the longest groups into
// contiguous pieces — never merge two groups, never leave a slot idle while
// a group has points to spare.
func TestSweepChainsFollowWarmGroups(t *testing.T) {
	s := Sweep{
		Circuits: SweepBenchmarks("rot", "z4ml"),
		Axes: Axes{
			VDDL:          []float64{4.3, 4.1, 3.9},
			SlackFactor:   []float64{1.1, 1.2},
			AlgorithmSets: [][]Algorithm{{AlgoCVS}, {AlgoGscale}},
		},
	}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	// Two circuits × two slack factors: four groups of six points, each
	// interleaved with another group in expansion order.
	const groups = 4
	keys := make([]string, len(points))
	for i, p := range points {
		if keys[i], err = p.Job().GroupKey(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ slots, chains, longest int }{
		{1, groups, 6}, {4, groups, 6}, {6, 6, 6}, {8, 8, 3}, {100, len(points), 1},
	} {
		chains := sweepChains(points, tc.slots)
		if len(chains) != tc.chains {
			t.Fatalf("slots %d: %d chains, want %d", tc.slots, len(chains), tc.chains)
		}
		seen := make([]bool, len(points))
		longest := 0
		for c, chain := range chains {
			longest = max(longest, len(chain))
			for k, i := range chain {
				if seen[i] {
					t.Fatalf("slots %d: point %d in two chains", tc.slots, i)
				}
				seen[i] = true
				if k > 0 && (i <= chain[k-1] || keys[i] != keys[chain[0]] || points[i].ci != points[chain[0]].ci) {
					t.Fatalf("slots %d: chain %d = %v mixes groups or runs out of index order", tc.slots, c, chain)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("slots %d: point %d in no chain", tc.slots, i)
			}
		}
		if longest != tc.longest {
			t.Fatalf("slots %d: longest chain %d, want %d", tc.slots, longest, tc.longest)
		}
	}
}

// scriptedRunner completes jobs without computing them: jobs matching fail
// end failed, jobs matching slow take a while first. It records the order
// in which each slack factor's points were submitted and the most points of
// one slack factor it ever held at once.
type scriptedRunner struct {
	fail, slow func(Config) bool

	mu        sync.Mutex
	jobs      map[JobID]Config
	order     map[float64][]float64 // slack factor → VDDL values in submission order
	inFlight  map[float64]int
	maxFlight int
}

func (r *scriptedRunner) Submit(ctx context.Context, job Job) (JobID, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := JobID(fmt.Sprintf("job-%d", len(r.jobs)))
	cfg := job.Config
	r.jobs[id] = cfg
	r.order[cfg.SlackFactor] = append(r.order[cfg.SlackFactor], cfg.Rails[1])
	r.inFlight[cfg.SlackFactor]++
	r.maxFlight = max(r.maxFlight, r.inFlight[cfg.SlackFactor])
	return id, nil
}

func (r *scriptedRunner) Result(ctx context.Context, id JobID) (*JobStatus, error) {
	r.mu.Lock()
	cfg := r.jobs[id]
	r.mu.Unlock()
	if r.slow(cfg) {
		time.Sleep(20 * time.Millisecond)
	}
	r.mu.Lock()
	r.inFlight[cfg.SlackFactor]--
	r.mu.Unlock()
	if r.fail(cfg) {
		return &JobStatus{ID: id, State: JobFailed, Error: "scripted failure"}, nil
	}
	return &JobStatus{ID: id, State: JobDone}, nil
}

func (r *scriptedRunner) Status(ctx context.Context, id JobID) (*JobStatus, error) {
	return &JobStatus{ID: id, State: JobRunning}, nil
}

func (r *scriptedRunner) Watch(ctx context.Context, id JobID) (<-chan Event, error) {
	out := make(chan Event)
	close(out)
	return out, nil
}

func (r *scriptedRunner) Cancel(ctx context.Context, id JobID) error { return nil }

// TestSweepReportsLowestFailureAcrossChains fails one point in each of two
// interleaved warm-prep groups and makes the group holding the lower index
// the slow one, so the higher-index failure lands first. Run must still
// report the lowest-index failure at every in-flight bound, skip nothing
// below it, and — while each group has one chain — submit each group's
// points one at a time in index order.
func TestSweepReportsLowestFailureAcrossChains(t *testing.T) {
	s := Sweep{
		Circuits: SweepBenchmarks("rot"),
		Axes:     Axes{VDDL: []float64{4.3, 4.1, 3.9, 3.7}, SlackFactor: []float64{1.1, 1.2}},
	}
	// Slack 1.1 holds points 0, 2, 4, 6 and slack 1.2 points 1, 3, 5, 7;
	// points 5 and 6 fail.
	for _, inFlight := range []int{1, 2, 3, 8} {
		r := &scriptedRunner{
			fail: func(c Config) bool {
				return (c.SlackFactor == 1.2 && c.Rails[1] == 3.9) || (c.SlackFactor == 1.1 && c.Rails[1] == 3.7)
			},
			slow:     func(c Config) bool { return c.SlackFactor == 1.2 },
			jobs:     map[JobID]Config{},
			order:    map[float64][]float64{},
			inFlight: map[float64]int{},
		}
		results, err := s.Run(context.Background(), r, SweepInFlight(inFlight))
		if err == nil || !strings.HasPrefix(err.Error(), "sweep point 5 (rot): scripted failure") {
			t.Fatalf("inflight %d: err = %v, want point 5's failure", inFlight, err)
		}
		for i, pr := range results {
			// Point 7 may have started before either failure landed.
			if done := pr.Status != nil; i != 7 && done != (i < 5) {
				t.Fatalf("inflight %d: point %d done = %v", inFlight, i, done)
			}
		}
		if inFlight > 2 {
			continue // spare slots cut the groups into pieces that run side by side
		}
		if r.maxFlight != 1 {
			t.Fatalf("inflight %d: %d points of one group in flight at once, want 1", inFlight, r.maxFlight)
		}
		if got, want := r.order[1.1], []float64{4.3, 4.1, 3.9, 3.7}; !reflect.DeepEqual(got, want) {
			t.Fatalf("inflight %d: slack 1.1 submitted %v, want %v", inFlight, got, want)
		}
		if got, want := r.order[1.2], []float64{4.3, 4.1, 3.9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("inflight %d: slack 1.2 submitted %v, want %v (point 7 skipped)", inFlight, got, want)
		}
	}
}
