package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dualvdd"
)

func sampleRows() []Row {
	return []Row{
		{Name: "C880", OrgPwrUW: 80, CVSPct: 15, DscalePct: 17, GscalePct: 22,
			OrgGates: 157, CVSLow: 105, CVSRatio: 0.67, DscaleLow: 111, DscaleRatio: 0.71,
			GscaleLow: 148, GscRatio: 0.94, Sized: 18, AreaInc: 0.095},
		{Name: "mux", OrgPwrUW: 18, CVSPct: 0, DscalePct: 0, GscalePct: 12,
			OrgGates: 46, GscRatio: 0.5, Sized: 4, AreaInc: 0.03},
	}
}

func TestPaperTableComplete(t *testing.T) {
	if len(Paper) != 39 {
		t.Fatalf("paper table has %d rows, want 39", len(Paper))
	}
	// Spot checks against the publication.
	r, ok := PaperByName("des")
	if !ok || r.OrgGates != 2795 || r.GscalePct != 22.10 {
		t.Fatalf("des row wrong: %+v", r)
	}
	if _, ok := PaperByName("ghost"); ok {
		t.Fatal("unknown circuit found in paper table")
	}
	// The published averages must match the published rows.
	var cvs, ds, gs float64
	for _, row := range Paper {
		cvs += row.CVSPct
		ds += row.DscalePct
		gs += row.GscalePct
	}
	n := float64(len(Paper))
	if diff := cvs/n - PaperAverages.CVSPct; diff > 0.01 || diff < -0.01 {
		t.Fatalf("CVS average mismatch: computed %.2f, published %.2f", cvs/n, PaperAverages.CVSPct)
	}
	if diff := ds/n - PaperAverages.DscalePct; diff > 0.01 || diff < -0.01 {
		t.Fatalf("Dscale average mismatch: computed %.2f, published %.2f", ds/n, PaperAverages.DscalePct)
	}
	if diff := gs/n - PaperAverages.GscalePct; diff > 0.01 || diff < -0.01 {
		t.Fatalf("Gscale average mismatch: computed %.2f, published %.2f", gs/n, PaperAverages.GscalePct)
	}
}

func TestAverages(t *testing.T) {
	avg := Averages(sampleRows())
	if avg.CVSPct != 7.5 || avg.GscalePct != 17 {
		t.Fatalf("averages wrong: %+v", avg)
	}
	if empty := Averages(nil); empty.CVSPct != 0 {
		t.Fatal("empty average not zero")
	}
}

func TestWriteTables(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1(&buf, sampleRows()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "C880", "mux", "average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTable2(&buf, sampleRows()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Profiles") {
		t.Fatal("table 2 header missing")
	}
	buf.Reset()
	if err := WriteMarkdown(&buf, sampleRows()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| C880 |") {
		t.Fatal("markdown row missing")
	}
}

func TestShapeChecksPass(t *testing.T) {
	rows := sampleRows()
	if fails := ShapeChecks(rows); len(fails) != 0 {
		t.Fatalf("clean rows flagged: %v", fails)
	}
}

func TestShapeChecksCatchViolations(t *testing.T) {
	rows := sampleRows()
	rows[0].DscalePct = rows[0].CVSPct - 2 // Dscale below CVS
	if fails := ShapeChecks(rows); len(fails) == 0 {
		t.Fatal("Dscale<CVS not flagged")
	}
	rows = sampleRows()
	rows[1].AreaInc = 0.25
	if fails := ShapeChecks(rows); len(fails) == 0 {
		t.Fatal("area bust not flagged")
	}
}

func TestRowString(t *testing.T) {
	s := sampleRows()[0].String()
	if !strings.Contains(s, "C880") || !strings.Contains(s, "Gscale=22.00%") {
		t.Fatalf("row string: %s", s)
	}
}

// tablePoint is one point of a Tables 1/2 sweep over hand-built results.
func tablePoint(i int, name string, orgPower float64, results ...*dualvdd.FlowResult) dualvdd.SweepPointResult {
	return dualvdd.SweepPointResult{
		Point: dualvdd.SweepPoint{Index: i, Circuit: dualvdd.SweepCircuit{Benchmark: name}},
		Status: &dualvdd.JobStatus{
			State:   dualvdd.JobDone,
			Design:  &dualvdd.DesignInfo{Name: name, OrgPower: orgPower},
			Results: results,
		},
	}
}

func TestTableRows(t *testing.T) {
	cvs := &dualvdd.FlowResult{Algorithm: "CVS", ImprovePct: 15.25, Gates: 157, LowGates: 105,
		LowRatio: 0.67, Runtime: 10 * time.Millisecond}
	ds := &dualvdd.FlowResult{Algorithm: "Dscale", ImprovePct: 17.5, Gates: 157, LowGates: 111,
		LowRatio: 0.71, LCs: 2, STAEvals: 1365, CandEvals: 420,
		Runtime: 250 * time.Millisecond}
	gs := &dualvdd.FlowResult{Algorithm: "Gscale", ImprovePct: 22.75, Gates: 157, LowGates: 148,
		LowRatio: 0.94, Sized: 18, AreaIncrease: 0.095, STAEvals: 3608,
		Runtime: 1500 * time.Millisecond}
	c880 := tablePoint(0, "C880", 80.12e-6, cvs, ds, gs)
	// Results are looked up by algorithm, not by position.
	mux := tablePoint(1, "mux", 18.5e-6, gs, cvs, ds)

	rows, err := TableRows([]dualvdd.SweepPointResult{c880, mux})
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string, orgPower float64) Row {
		return Row{
			Name: name, OrgPwrUW: orgPower * 1e6, CVSPct: 15.25, DscalePct: 17.5, GscalePct: 22.75,
			CPUSec: 1.5, CVSSec: 0.01, DscaleSec: 0.25,
			DscaleEvals: 1365, GscaleEvals: 3608, DscaleCandEvals: 420,
			OrgGates: 157, CVSLow: 105, CVSRatio: 0.67, DscaleLow: 111, DscaleRatio: 0.71,
			GscaleLow: 148, GscRatio: 0.94, Sized: 18, AreaInc: 0.095,
		}
	}
	if want := []Row{row("C880", 80.12e-6), row("mux", 18.5e-6)}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows do not match the results in point order:\n got %+v\nwant %+v", rows, want)
	}

	noStatus := c880
	noStatus.Status = nil
	noDesign := tablePoint(1, "x2", 1e-5, cvs, ds, gs)
	noDesign.Status.Design = nil
	for _, bad := range []struct {
		name string
		pr   dualvdd.SweepPointResult
	}{
		{"nil status", noStatus},
		{"no design", noDesign},
		{"no CVS", tablePoint(1, "x2", 1e-5, ds, gs)},
		{"no Dscale", tablePoint(1, "x2", 1e-5, cvs, gs, nil)},
		{"no Gscale", tablePoint(1, "x2", 1e-5, cvs, ds)},
	} {
		if rows, err := TableRows([]dualvdd.SweepPointResult{mux, bad.pr}); err == nil {
			t.Errorf("%s: accepted as %+v", bad.name, rows)
		}
	}
}
