// Integration test: regenerate a representative slice of Tables 1 and 2 and
// assert the paper's qualitative claims (§4) hold — orderings, rough
// factors, structural signatures — without pinning absolute numbers, which
// depend on the calibrated stand-in library. The complete tables are
// regenerated by cmd/tables and recorded in EXPERIMENTS.md.
package dualvdd_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"dualvdd"
	"dualvdd/internal/report"
)

// experimentCircuits covers each generator family and the structural corner
// cases the paper calls out (balanced circuits with zero CVS gain, folded
// narrow-output circuits, arithmetic chains, big random logic).
var experimentCircuits = []string{
	"z4ml", "mux", "C432", "C499", "C880", "alu2", "b9", "sct",
	"apex7", "my_adder", "i2", "lal", "x2", "pm1", "pcle", "term1",
}

// tableRows regenerates Table 1/2 rows for the named circuits the way
// cmd/tables does: one Sweep over them at base on a cache-less Local with
// the given worker count.
func tableRows(tb testing.TB, base dualvdd.Config, workers int, names ...string) []report.Row {
	tb.Helper()
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(workers), dualvdd.LocalCacheEntries(0))
	results, err := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks(names...), Base: base}.
		Run(ctx, l, dualvdd.SweepInFlight(workers))
	if cerr := l.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := report.TableRows(results)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// stripTimes zeroes the wall-clock fields, the only legitimate difference
// between runs.
func stripTimes(rows []report.Row) {
	for i := range rows {
		rows[i].CPUSec, rows[i].CVSSec, rows[i].DscaleSec = 0, 0, 0
	}
}

func runExperiments(t *testing.T) []report.Row {
	t.Helper()
	// The slice runs at full width; rows are worker-count independent
	// (TestBatchDeterminismAcrossWorkers).
	rows := tableRows(t, dualvdd.DefaultConfig(), runtime.GOMAXPROCS(0), experimentCircuits...)
	for _, row := range rows {
		t.Log(row)
	}
	return rows
}

func TestExperimentShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment slice is not short")
	}
	rows := runExperiments(t)
	for _, fail := range report.ShapeChecks(rows) {
		t.Error(fail)
	}

	byName := map[string]report.Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	// Claim: "there are 7 cases on which CVS can not make any low-power
	// arrangement" — balanced structures. Our mux (a balanced select tree)
	// and i2 (folded narrow-output logic) must reproduce the effect.
	for _, name := range []string{"mux", "i2"} {
		if r := byName[name]; r.CVSPct > 1.0 {
			t.Errorf("%s: CVS should achieve ~nothing on this structure, got %.2f%%", name, r.CVSPct)
		}
	}

	// Claim: Gscale rescues circuits CVS cannot touch (C1355/C499/mux/z4ml
	// in Table 1 gain 15-21%% under Gscale from 0 under CVS).
	if r := byName["C499"]; r.GscalePct < 10 {
		t.Errorf("C499: Gscale should recover a balanced circuit (got %.2f%%)", r.GscalePct)
	}

	// Claim: "In 17 out of 39 cases the figures of Gscale are more than
	// twice those of CVS" — require the effect to exist in our slice.
	doubled := 0
	for _, r := range rows {
		if r.CVSPct > 0 && r.GscalePct >= 2*r.CVSPct {
			doubled++
		}
		if r.CVSPct <= 0.5 && r.GscalePct > 5 {
			doubled++ // zero-CVS circuits rescued count a fortiori
		}
	}
	if doubled < 3 {
		t.Errorf("Gscale doubled CVS on only %d circuits of %d; the paper's effect is missing",
			doubled, len(rows))
	}

	// Claim: Dscale never loses to CVS and the average gain is small
	// ("the improvement is quite limited" — 1.82%% on average).
	avg := report.Averages(rows)
	if d := avg.DscalePct - avg.CVSPct; d < 0 || d > 5 {
		t.Errorf("Dscale-CVS average delta %.2f%% out of the paper's small-positive regime", d)
	}

	// Claim: sizing stays cheap — "the area overhead is less than 6%"
	// in the mean (we assert the 10%% hard cap plus a sane average).
	if avg.AreaInc > 0.10 {
		t.Errorf("average area increase %.3f breaks the budget", avg.AreaInc)
	}

	// Claim: low-voltage ratios grow monotonically CVS <= Dscale, and
	// Gscale raises the portion substantially (0.37 -> 0.70 in the paper).
	if avg.DscaleRatio < avg.CVSRatio-1e-9 {
		t.Errorf("Dscale ratio %.2f below CVS ratio %.2f", avg.DscaleRatio, avg.CVSRatio)
	}
	if avg.GscRatio < avg.CVSRatio+0.15 {
		t.Errorf("Gscale ratio %.2f does not substantially exceed CVS ratio %.2f",
			avg.GscRatio, avg.CVSRatio)
	}
}

func TestDeterministicReproduction(t *testing.T) {
	// The whole flow is seeded; two runs must agree bit-for-bit. Wall clock
	// is the only legitimate difference; the STA eval counts must agree
	// exactly or the incremental engine took a different path.
	a := tableRows(t, dualvdd.DefaultConfig(), 1, "C880")
	b := tableRows(t, dualvdd.DefaultConfig(), 1, "C880")
	stripTimes(a)
	stripTimes(b)
	if a[0] != b[0] {
		t.Fatalf("non-deterministic evaluation:\n%+v\n%+v", a[0], b[0])
	}
}

func TestRunProducesConsistentRow(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	row := tableRows(t, cfg, 1, "x2")[0]
	if row.Name != "x2" || row.OrgPwrUW <= 0 || row.OrgGates <= 0 {
		t.Fatalf("degenerate row: %+v", row)
	}
	// Internal consistency of the row's own fields.
	if row.GscalePct < row.CVSPct-1e-9 {
		t.Fatalf("Gscale %.2f below CVS %.2f", row.GscalePct, row.CVSPct)
	}
	if row.CVSLow > row.OrgGates || row.GscaleLow > row.OrgGates {
		t.Fatalf("low counts exceed gate count: %+v", row)
	}
	if row.CVSRatio < 0 || row.CVSRatio > 1 || row.GscRatio < 0 || row.GscRatio > 1 {
		t.Fatalf("ratios out of range: %+v", row)
	}
	if row.AreaInc > cfg.MaxAreaIncrease+1e-9 {
		t.Fatalf("area increase %.3f over budget", row.AreaInc)
	}
}

// determinismSuite spans the generator families without making the test
// slow: balanced (mux), arithmetic (z4ml), random logic (x2, b9), folded
// (pm1), control (sct).
var determinismSuite = []string{"z4ml", "mux", "x2", "pm1", "b9", "sct"}

// TestBatchDeterminismAcrossWorkers is the parallelism gate of the tables
// path: Table 1/2 rows must be bit-identical at 1, 2, 4 and GOMAXPROCS workers,
// including the rendered tables the golden-file tests pin. CI runs this
// under -race at GOMAXPROCS=2 and 8.
func TestBatchDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow determinism sweep is not short")
	}
	cfg := dualvdd.DefaultConfig()

	serial := tableRows(t, cfg, 1, determinismSuite...)
	stripTimes(serial)
	var wantT1, wantT2 bytes.Buffer
	if err := report.WriteTable1(&wantT1, serial); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteTable2(&wantT2, serial); err != nil {
		t.Fatal(err)
	}

	// Every worker count must reproduce the serial rows and the rendered
	// tables byte for byte. (The compiled simulation is held to the
	// reference interpreter by the internal/sim tests.)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		rows := tableRows(t, cfg, workers, determinismSuite...)
		stripTimes(rows)
		for i := range serial {
			if rows[i] != serial[i] {
				t.Fatalf("workers=%d: row %d diverged from serial run:\n%+v\n%+v",
					workers, i, rows[i], serial[i])
			}
		}
		var gotT1, gotT2 bytes.Buffer
		if err := report.WriteTable1(&gotT1, rows); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteTable2(&gotT2, rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotT1.Bytes(), wantT1.Bytes()) || !bytes.Equal(gotT2.Bytes(), wantT2.Bytes()) {
			t.Fatalf("workers=%d: rendered tables differ from the serial rendering", workers)
		}
	}
}
