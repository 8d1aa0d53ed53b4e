package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/internal/store"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 100}, {1, 100}, {10, 100}, {11, 9}, {39, 74.3}, {100, 90}, {999, 98.9}, {1000, 99}, {1365, 99}, {100000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	for n := tailMin + 1; n <= 3000; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		beyond := func(p float64) int { return n - 1 - int(quantile(sorted, p)) }
		p := tailPercentile(n)
		if b := beyond(p); b < tailMin {
			t.Fatalf("n=%d: p%g leaves %d samples beyond, want at least %d", n, p, b, tailMin)
		}
		if p < 99 && beyond(p+0.1) >= tailMin {
			t.Fatalf("n=%d: p%g is not the highest percentile with %d beyond", n, p, tailMin)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %g, want 2 (nearest rank)", got)
	}
	if got := quantile(s, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once, not twice.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		// A child reaching past its parent is clipped to the parent.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "grand", Start: 15, End: 25},
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  (100 - 40 - 10) + 10,
		"child": (30 - 10) + 20,
		"late":  30,
		"grand": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsUnderContext(t *testing.T) {
	tr := newTracer(false)
	ctx, outer := tr.begin(context.Background(), "outer", "op")
	_, inner := tr.begin(ctx, "inner", "op")
	in := inner.end()
	out := outer.end()
	if in.Parent != out.ID || out.Parent != 0 {
		t.Errorf("inner parent %d, outer id %d parent %d", in.Parent, out.ID, out.Parent)
	}
	var untraced *tracer
	if _, s := untraced.begin(context.Background(), "x", ""); s.end() != (span{}) || s.id() != 0 {
		t.Error("the nil tracer recorded a span")
	}
}

func TestServiceMixReproducible(t *testing.T) {
	pts := servicePoints()
	if len(pts) != 69 {
		t.Fatalf("%d service points, want 69", len(pts))
	}
	round := func(seed int64, k int) []draw {
		rng := rand.New(rand.NewSource(seed))
		var mix []draw
		for i := 0; i <= k; i++ {
			mix = serviceMix(rng, len(pts), serviceJobs)
		}
		return mix
	}
	a := round(7, 0)
	if b := round(7, 0); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew a different mix")
	}
	if c := round(8, 0); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same mix")
	}
	if a1, b1 := round(7, 1), round(7, 1); !reflect.DeepEqual(a1, b1) || reflect.DeepEqual(a, a1) {
		t.Fatal("a run's second round is not reproducible, or repeats the first")
	}
	blifs, hits := 0, map[int]int{}
	for _, d := range a {
		if d.point < 0 || d.point >= len(pts) {
			t.Fatalf("draw out of range: %d", d.point)
		}
		hits[d.point]++
		if d.blif {
			blifs++
		}
	}
	if blifs != serviceJobs/2 {
		t.Errorf("%d BLIF draws, want exactly half of %d", blifs, serviceJobs)
	}
	// Zipf over a permutation: a hot head, and the hottest point is not
	// simply the first of the grid.
	counts := make([]int, 0, len(hits))
	for _, c := range hits {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if counts[0] < serviceJobs/4 {
		t.Errorf("hottest point drawn %d times; the mix is not heavy-tailed", counts[0])
	}
}

func TestSweepAxis(t *testing.T) {
	v := sweepVDDL()
	if len(v) != 91 || v[0] != 3.00 || v[32] != 3.64 || v[36] != 3.72 || v[90] != 4.80 {
		t.Errorf("sweep axis %v", v)
	}
}

func TestFingerprintIgnoresWallClocks(t *testing.T) {
	a := &dualvdd.FlowResult{Algorithm: "CVS", Power: 1.5, Runtime: time.Second, SimTime: time.Millisecond}
	b := *a
	b.Runtime, b.SimTime = 3*time.Second, 0
	if fingerprint([]*dualvdd.FlowResult{a}) != fingerprint([]*dualvdd.FlowResult{&b}) {
		t.Error("wall clocks changed the fingerprint")
	}
	b.Power = 1.5000000000000002
	if fingerprint([]*dualvdd.FlowResult{a}) == fingerprint([]*dualvdd.FlowResult{&b}) {
		t.Error("a one-ulp power difference kept the fingerprint")
	}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr, n := newTracer(false), &seamCounts{}
	cas, err := store.OpenCAS(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		c                   dualvdd.ResultCache
		fallible, degrading bool
	}{
		{"memory", dualvdd.NewMemoryCache(4), false, false},
		{"cas", cas, true, false},
		{"degrading", dualvdd.NewDegradingCache(cas, 4, 3), false, true},
		{"fallible+degrading", struct {
			dualvdd.FallibleCache
			degrader
		}{cas, dualvdd.NewDegradingCache(cas, 4, 3)}, true, true},
	} {
		w := wrapCache(tc.c, tr, n)
		_, fallible := w.(dualvdd.FallibleCache)
		_, degrading := w.(degrader)
		if fallible != tc.fallible || degrading != tc.degrading {
			t.Errorf("%s: wrapper fallible=%v degrading=%v, want %v %v", tc.name, fallible, degrading, tc.fallible, tc.degrading)
		}
	}

	entry := &dualvdd.CachedResult{Key: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		Design: &dualvdd.DesignInfo{Name: "x"}}
	w := wrapCache(cas, tr, n)
	if err := dualvdd.CachePut(w, entry); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := dualvdd.CacheGet(w, entry.Key); err != nil || !ok || got.Design.Name != "x" {
		t.Fatalf("get through the wrapper: %v %v %v", got, ok, err)
	}
	if n.casHits.Load() != 1 || len(tr.take()) != 2 {
		t.Error("the wrapper did not record the get and the put")
	}

	local := dualvdd.NewLocal()
	defer local.Close(context.Background())
	if _, ok := wrapRunner(local, &tracedRunner{tr: tr, side: "local"}).(dualvdd.MetricsProvider); !ok {
		t.Error("wrapping a Local lost MetricsProvider")
	}
	c, err := client.New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapRunner(c, &tracedRunner{tr: tr, side: "client"}).(dualvdd.MetricsProvider); ok {
		t.Error("wrapping a client invented MetricsProvider")
	}
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json's metric lists to
// what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	e2e := endToEnd(&outcome{passes: []timedPass{{wall: 1, cpu: 1, ops: 1, latMs: []float64{1}}}}, 1)
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program prints %+v", m.Name, got)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, p)
		}
	}
}
