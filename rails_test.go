package dualvdd_test

// The multi-rail differential and end-to-end suite. Two promises are held
// here: (1) `Rails: [vhigh, vlow]` is not "almost" the legacy pair — it is
// byte-identical on the wire, address-identical in the caches, and
// bit-identical in the results; (2) a genuinely multi-rail sweep (three or
// more supplies) runs end to end through both runner shapes — a Local and a
// fleet coordinator — with warm-group affinity intact and the second pass
// answered entirely from cache.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
	"dualvdd/server"
)

// TestRailPairBackCompatAllBenchmarks holds the two-rail compatibility
// promise job by job across the whole MCNC bed: a two-entry rail table must
// encode to byte-identical JSON and identical content and placement
// addresses as the legacy WithVoltages pair — which is what lets railed
// sweeps share cache entries and warm groups with every result computed
// before the rail list existed. TestJobKeyGolden pins the addresses
// themselves.
func TestRailPairBackCompatAllBenchmarks(t *testing.T) {
	names := dualvdd.Benchmarks()
	if len(names) != 39 {
		t.Fatalf("benchmark bed has %d circuits, want the paper's 39", len(names))
	}
	for _, name := range names {
		legacy := dualvdd.BenchmarkJob(name, dualvdd.WithVoltages(5.0, 4.3))
		railed := dualvdd.BenchmarkJob(name, dualvdd.WithRails(5.0, 4.3))

		lj, err := json.Marshal(legacy.Config)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(railed.Config)
		if err != nil {
			t.Fatal(err)
		}
		if string(lj) != string(rj) {
			t.Fatalf("%s: canonical config JSON diverged:\n legacy %s\n railed %s", name, lj, rj)
		}

		lk, err := legacy.Key()
		if err != nil {
			t.Fatal(err)
		}
		rk, err := railed.Key()
		if err != nil {
			t.Fatal(err)
		}
		if lk != rk {
			t.Fatalf("%s: two-entry Rails split the content address: %s vs %s", name, lk, rk)
		}

		lg, err := legacy.GroupKey()
		if err != nil {
			t.Fatal(err)
		}
		rg, err := railed.GroupKey()
		if err != nil {
			t.Fatal(err)
		}
		if lg != rg {
			t.Fatalf("%s: two-entry Rails split the placement address: %s vs %s", name, lg, rg)
		}
	}
}

// sweepPointEvents runs a sweep collecting its EventSweepPoint stream, sorted
// back into expansion order.
func sweepPointEvents(ctx context.Context, t *testing.T, s dualvdd.Sweep, r dualvdd.Runner) ([]dualvdd.SweepPointResult, []dualvdd.EventSweepPoint) {
	t.Helper()
	var mu sync.Mutex
	var evs []dualvdd.EventSweepPoint
	rows, err := s.Run(ctx, r, dualvdd.SweepObserver(func(ev dualvdd.Event) {
		if sp, ok := ev.(dualvdd.EventSweepPoint); ok {
			mu.Lock()
			evs = append(evs, sp)
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Index < evs[j].Index })
	return rows, evs
}

// sweepEventsDigest hashes a sweep's point-event envelopes after zeroing the
// fields that legitimately differ between two identical computations: wall
// clock (Runtime) and scheduling provenance (Cached). What remains
// is the deterministic wire content of the sweep.
func sweepEventsDigest(t *testing.T, evs []dualvdd.EventSweepPoint) string {
	t.Helper()
	h := sha256.New()
	for _, ev := range evs {
		ev.Cached = false
		results := make([]*dualvdd.FlowResult, len(ev.Results))
		for i, r := range ev.Results {
			cp := *r
			cp.Runtime = 0
			results[i] = &cp
		}
		ev.Results = results
		b, err := dualvdd.MarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRailPairSweepMatchesLegacy is the two-rail differential run end to end:
// the same grid swept once through the classic VDDL axis and once as
// two-entry rail tables, on one shared Local. The railed pass must be
// answered entirely from the legacy pass's cache (address identity, proven in
// the runner, not just in Key), its rows must match bit for bit, and the two
// event streams must hash to the same digest (wire identity).
func TestRailPairSweepMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	ctx := context.Background()
	legacy := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("x2", "mux"),
		Base:     dualvdd.Config{SimWords: 32},
		Axes:     dualvdd.Axes{VDDL: []float64{4.3, 3.9}},
	}
	railed := legacy
	railed.Axes = dualvdd.Axes{Rails: [][]float64{{5.0, 4.3}, {5.0, 3.9}}}

	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = l.Close(cctx)
	}()

	legacyRows, legacyEvs := sweepPointEvents(ctx, t, legacy, l)
	railedRows, railedEvs := sweepPointEvents(ctx, t, railed, l)
	if len(railedRows) != len(legacyRows) {
		t.Fatalf("%d railed rows vs %d legacy", len(railedRows), len(legacyRows))
	}
	for i := range legacyRows {
		ls, rs := legacyRows[i].Status, railedRows[i].Status
		if !rs.Cached {
			t.Errorf("point %d: railed point recomputed — its content address missed the legacy cache entry", i)
		}
		if len(rs.Results) != len(ls.Results) {
			t.Fatalf("point %d: %d railed results vs %d legacy", i, len(rs.Results), len(ls.Results))
		}
		for j := range ls.Results {
			requireSameResult(t, legacyRows[i].Point.Circuit.Benchmark+"/"+ls.Results[j].Algorithm,
				ls.Results[j], rs.Results[j])
		}
	}
	m := l.Metrics()
	if m.CacheHits != int64(len(legacyRows)) {
		t.Errorf("CacheHits = %d, want %d (every railed point)", m.CacheHits, len(legacyRows))
	}
	if ld, rd := sweepEventsDigest(t, legacyEvs), sweepEventsDigest(t, railedEvs); ld != rd {
		t.Errorf("event-stream digests diverged: legacy %s, railed %s", ld, rd)
	}
}

// threeRailSweep is the e2e grid: two circuits, two classic pairs plus one
// three-rail table, one algorithm. Six points; the three-rail points carry
// the per-rail breakdown columns, the pairs stay on legacy wire bytes.
func threeRailSweep() dualvdd.Sweep {
	return dualvdd.Sweep{
		Circuits:   dualvdd.SweepBenchmarks("x2", "mux"),
		Base:       dualvdd.Config{SimWords: 32},
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS},
		Axes:       dualvdd.Axes{Rails: [][]float64{{5.0, 4.3}, {5.0, 3.9}, {5.0, 4.3, 3.6}}},
	}
}

// checkThreeRailRows asserts the per-rail accounting of a three-rail sweep's
// rows: multi-rail points carry a consistent RailGates/LCCross breakdown,
// two-rail points carry none (their wire bytes are the legacy ones).
func checkThreeRailRows(t *testing.T, rows []dualvdd.SweepPointResult) {
	t.Helper()
	for i, row := range rows {
		if row.Status == nil {
			t.Fatalf("point %d: nil status", i)
		}
		multi := len(row.Point.Config.Rails) >= 3
		for _, res := range row.Status.Results {
			if !multi {
				if res.RailGates != nil || res.LCCross != nil {
					t.Errorf("point %d: two-rail result grew multi-rail columns (%v, %v)",
						i, res.RailGates, res.LCCross)
				}
				continue
			}
			if len(res.RailGates) != 3 {
				t.Fatalf("point %d: RailGates has %d entries, want one per rail (3)", i, len(res.RailGates))
			}
			gates := 0
			for _, n := range res.RailGates {
				gates += n
			}
			if gates != res.Gates {
				t.Errorf("point %d: RailGates sums to %d, Gates says %d", i, gates, res.Gates)
			}
			if res.RailGates[0] != res.Gates-res.LowGates {
				t.Errorf("point %d: %d gates at the top rail, but Gates-LowGates = %d",
					i, res.RailGates[0], res.Gates-res.LowGates)
			}
			lcs := 0
			for _, x := range res.LCCross {
				if x.From <= x.To {
					t.Errorf("point %d: LC crossing %d→%d does not restore upward", i, x.From, x.To)
				}
				lcs += x.LCs
			}
			if lcs != res.LCs {
				t.Errorf("point %d: LCCross sums to %d converters, LCs says %d", i, lcs, res.LCs)
			}
		}
	}
}

// requireSameRows holds two row sets of the same sweep bit-identical on every
// deterministic result field.
func requireSameRows(t *testing.T, want, got []dualvdd.SweepPointResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows vs %d", len(got), len(want))
	}
	for i := range want {
		ws, gs := want[i].Status, got[i].Status
		if len(gs.Results) != len(ws.Results) {
			t.Fatalf("point %d: %d results vs %d", i, len(gs.Results), len(ws.Results))
		}
		for j := range ws.Results {
			requireSameResult(t, want[i].Point.Circuit.Benchmark+"/"+ws.Results[j].Algorithm,
				ws.Results[j], gs.Results[j])
		}
	}
}

// TestThreeRailSweepLocalWarm drives the three-rail grid through a Local:
// the rows must carry a consistent per-rail breakdown and match standalone
// Flow runs, the prep metrics must show exactly one build per (circuit,
// rail-table) warm group with the two classic pairs sharing one group, and
// an immediate re-run must be answered 100% from cache with bit-identical
// rows.
func TestThreeRailSweepLocalWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e sweep is slow")
	}
	ctx := context.Background()
	sweep := threeRailSweep()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = l.Close(cctx)
	}()

	rows, err := sweep.Run(ctx, l)
	if err != nil {
		t.Fatalf("three-rail sweep: %v", err)
	}
	checkThreeRailRows(t, rows)
	requireSameRows(t, flowOracle(ctx, t, sweep), rows)

	// Warm groups: per circuit, the two classic pairs share one group (the
	// low rail is retargeted, not re-prepared) and the three-rail table has
	// its own — two builds and one reuse per circuit.
	m := l.Metrics()
	if m.CacheMisses != int64(len(rows)) {
		t.Errorf("first pass: CacheMisses = %d, want %d", m.CacheMisses, len(rows))
	}
	if m.PrepBuilds != 4 {
		t.Errorf("PrepBuilds = %d, want 4 (pair group + 3-rail group, per circuit)", m.PrepBuilds)
	}
	if m.PrepReuses != 2 {
		t.Errorf("PrepReuses = %d, want 2 (the second classic pair, per circuit)", m.PrepReuses)
	}
	if m.MultiRailJobs != 2 {
		t.Errorf("MultiRailJobs = %d, want 2 (the three-rail point, per circuit)", m.MultiRailJobs)
	}

	// The re-run: six content hits, zero computation, identical rows.
	rows2, err := sweep.Run(ctx, l)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	for i, row := range rows2 {
		if !row.Status.Cached {
			t.Errorf("re-run point %d recomputed", i)
		}
	}
	if m = l.Metrics(); m.CacheHits != int64(len(rows)) {
		t.Errorf("re-run: CacheHits = %d, want %d", m.CacheHits, len(rows))
	}
	requireSameRows(t, rows, rows2)
}

// TestThreeRailSweepFleet drives the same three-rail grid through a fleet
// coordinator over two HTTP workers. The coordinator shards by
// Job.GroupKey, so every warm group must land whole on one worker — observed
// as exactly one prepared-state build per group fleet-wide — and the rows
// must match standalone Flow runs bit for bit. A second pass is answered
// entirely from the coordinator's result cache.
func TestThreeRailSweepFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet sweep is slow")
	}
	ctx := context.Background()
	sweep := threeRailSweep()

	want := flowOracle(ctx, t, sweep)
	checkThreeRailRows(t, want)

	var workers []*dualvdd.Local
	var urls []string
	for i := 0; i < 2; i++ {
		w := dualvdd.NewLocal()
		ts := httptest.NewServer(server.New(w))
		workers = append(workers, w)
		urls = append(urls, ts.URL)
		t.Cleanup(func() {
			ts.Close()
			cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = w.Close(cctx)
		})
	}
	co, err := fleet.New(urls, fleet.WithDialer(func(url string) (fleet.WorkerClient, error) {
		return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = co.Close(cctx)
	}()

	rows, err := sweep.Run(ctx, co)
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	checkThreeRailRows(t, rows)
	requireSameRows(t, want, rows)

	// Affinity: four warm groups, four builds fleet-wide. A group split
	// across workers would build its prepared state twice.
	var builds int64
	for _, w := range workers {
		builds += w.Metrics().PrepBuilds
	}
	if builds != 4 {
		t.Errorf("fleet-wide PrepBuilds = %d, want 4 — a warm group was split across workers", builds)
	}
	if m := co.Metrics(); m.MultiRailJobs != 2 {
		t.Errorf("coordinator MultiRailJobs = %d, want 2", m.MultiRailJobs)
	}

	// The re-run never leaves the coordinator: all six points are content
	// hits against its result cache.
	rows2, err := sweep.Run(ctx, co)
	if err != nil {
		t.Fatalf("fleet re-run: %v", err)
	}
	for i, row := range rows2 {
		if !row.Status.Cached {
			t.Errorf("fleet re-run point %d recomputed", i)
		}
	}
	if m := co.Metrics(); m.CacheHits != int64(len(rows)) {
		t.Errorf("fleet re-run: CacheHits = %d, want %d", m.CacheHits, len(rows))
	}
	requireSameRows(t, want, rows2)
}
