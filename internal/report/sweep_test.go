package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dualvdd"
)

// goldenSweep is a fixed two-circuit fixture: C880 swept across two VDDL
// points (the lower rail wins on power, the higher on slack — both survive
// Pareto), plus one dominated configuration and a second circuit with a
// cached point.
func goldenSweep() []dualvdd.SweepPointResult {
	cfg := func(vlow float64, words int) dualvdd.Config {
		c := dualvdd.DefaultConfig()
		c.Rails[1] = vlow
		c.SimWords = words
		return c
	}
	point := func(i int, bench string, c dualvdd.Config, cached bool, frs ...*dualvdd.FlowResult) dualvdd.SweepPointResult {
		return dualvdd.SweepPointResult{
			Point: dualvdd.SweepPoint{
				Index:      i,
				Circuit:    dualvdd.SweepCircuit{Benchmark: bench},
				Config:     c,
				Algorithms: []dualvdd.Algorithm{dualvdd.AlgoGscale},
			},
			Status: &dualvdd.JobStatus{
				ID: "job-000001-deadbeef", State: dualvdd.JobDone, Cached: cached,
				Design:  &dualvdd.DesignInfo{Name: bench, Gates: 157},
				Results: frs,
			},
		}
	}
	return []dualvdd.SweepPointResult{
		point(0, "C880", cfg(3.9, 256), false, &dualvdd.FlowResult{
			Algorithm: "Gscale", Power: 5.9e-5, ImprovePct: 26.4, Gates: 157,
			LowGates: 150, LCs: 2, Sized: 18, LowRatio: 0.9554, AreaIncrease: 0.095,
			WorstSlack: 0.004,
		}),
		point(1, "C880", cfg(4.3, 256), false, &dualvdd.FlowResult{
			Algorithm: "Gscale", Power: 6.19e-5, ImprovePct: 22.7, Gates: 157,
			LowGates: 147, LCs: 3, Sized: 16, LowRatio: 0.9363, AreaIncrease: 0.09,
			WorstSlack: 0.031,
		}),
		point(2, "C880", cfg(4.5, 256), false, &dualvdd.FlowResult{
			// Dominated: worse than point 1 on power and slack, equal LCs.
			Algorithm: "Gscale", Power: 6.8e-5, ImprovePct: 15.1, Gates: 157,
			LowGates: 120, LCs: 3, Sized: 12, LowRatio: 0.7643, AreaIncrease: 0.07,
			WorstSlack: 0.012,
		}),
		point(3, "mux", cfg(3.9, 64), true, &dualvdd.FlowResult{
			Algorithm: "Gscale", Power: 1.7e-5, ImprovePct: 3.29, Gates: 46,
			LowGates: 20, LCs: 0, Sized: 4, LowRatio: 0.4348, AreaIncrease: 0.03,
			WorstSlack: 0.0476,
		}),
	}
}

func TestBuildSweepParetoPerCircuit(t *testing.T) {
	res := BuildSweep(goldenSweep())
	if res.Schema != SweepSchema || res.Points != 4 || len(res.Rows) != 4 {
		t.Fatalf("report shape: %+v", res)
	}
	wantPareto := []bool{true, true, false, true} // mux competes only with itself
	for i, r := range res.Rows {
		if r.Pareto != wantPareto[i] {
			t.Fatalf("row %d (circuit %s) pareto = %v, want %v", i, r.Circuit, r.Pareto, wantPareto[i])
		}
	}
	front := res.ParetoRows()
	if len(front) != 3 {
		t.Fatalf("frontier has %d rows, want 3", len(front))
	}
	if !res.Rows[3].Cached {
		t.Fatal("cached flag lost in flattening")
	}
	// An aborted sweep's error holes are skipped, not crashed on.
	withHole := append(goldenSweep(), dualvdd.SweepPointResult{})
	if got := BuildSweep(withHole); len(got.Rows) != 4 {
		t.Fatalf("error hole produced %d rows", len(got.Rows))
	}
}

// TestBuildSweepParetoKeysOnCircuitIdentity: two distinct inline-BLIF
// circuits may share a display name; their frontiers must stay separate —
// grouping by name would let one circuit's point dominate the other's.
func TestBuildSweepParetoKeysOnCircuitIdentity(t *testing.T) {
	row := func(blif string, power float64) dualvdd.SweepPointResult {
		return dualvdd.SweepPointResult{
			Point: dualvdd.SweepPoint{
				Circuit:    dualvdd.SweepCircuit{BLIF: blif},
				Config:     dualvdd.DefaultConfig(),
				Algorithms: []dualvdd.Algorithm{dualvdd.AlgoGscale},
			},
			Status: &dualvdd.JobStatus{
				State:  dualvdd.JobDone,
				Design: &dualvdd.DesignInfo{Name: "top"}, // same display name
				Results: []*dualvdd.FlowResult{{
					Algorithm: "Gscale", Power: power, WorstSlack: 0.01,
				}},
			},
		}
	}
	// Circuit B's only point is strictly worse on power; if frontiers merged
	// by name it would be dominated and lose its Pareto flag.
	res := BuildSweep([]dualvdd.SweepPointResult{
		row(".model top\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n", 1e-5),
		row(".model top\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n", 2e-5),
	})
	for i, r := range res.Rows {
		if !r.Pareto {
			t.Fatalf("row %d (%s, %g W) lost its frontier flag to a same-named circuit",
				i, r.Circuit, r.PowerUW)
		}
	}
}

// TestBuildSweepRejectsNaN pins the NaN gate: a result row carrying a NaN
// objective (a hand-built status or a corrupted decode — the flow itself
// errors instead of reporting NaN) must not become a SweepRow, where IEEE
// comparison semantics would once have parked it on the Pareto frontier
// forever.
func TestBuildSweepRejectsNaN(t *testing.T) {
	nan := math.NaN()
	mk := func(power, slack float64) dualvdd.SweepPointResult {
		return dualvdd.SweepPointResult{
			Point: dualvdd.SweepPoint{
				Circuit:    dualvdd.SweepCircuit{Benchmark: "C880"},
				Config:     dualvdd.DefaultConfig(),
				Algorithms: []dualvdd.Algorithm{dualvdd.AlgoGscale},
			},
			Status: &dualvdd.JobStatus{
				State:   dualvdd.JobDone,
				Results: []*dualvdd.FlowResult{{Algorithm: "Gscale", Power: power, WorstSlack: slack}},
			},
		}
	}
	res := BuildSweep([]dualvdd.SweepPointResult{
		mk(2e-5, nan),  // NaN slack: dropped
		mk(nan, 0.01),  // NaN power: dropped
		mk(3e-5, 0.01), // finite: kept, and on the frontier alone
	})
	if len(res.Rows) != 1 {
		t.Fatalf("NaN rows survived: %d rows", len(res.Rows))
	}
	if r := res.Rows[0]; r.PowerUW != 3e-5*1e6 || !r.Pareto {
		t.Fatalf("surviving row wrong: %+v", r)
	}
}

func TestGoldenSweepJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := BuildSweep(goldenSweep()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweepjson", buf.Bytes())
	// The JSON form round-trips into the same report.
	var back SweepResult
	if err := DecodeJSON(bytes.NewReader(buf.Bytes()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, BuildSweep(goldenSweep())) {
		t.Fatal("sweep JSON round trip drifted")
	}
}

func TestGoldenSweepCSV(t *testing.T) {
	res := BuildSweep(goldenSweep())
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweepcsv", buf.Bytes())
	// Header and row count are structural: one header + one line per row.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(res.Rows) {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(res.Rows))
	}
	if lines[0] != strings.Join(sweepCSVHeader, ",") {
		t.Fatalf("CSV header drifted: %s", lines[0])
	}
}

func TestGoldenSweepTable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepTable(&buf, BuildSweep(goldenSweep())); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweeptable", buf.Bytes())
}

// TestSweepRowJSONStableEncoding pins the machine-readable field names — the
// sweep report is wire/artifact contract like the bench snapshots.
func TestSweepRowJSONStableEncoding(t *testing.T) {
	b, err := json.Marshal(SweepRow{Index: 1, Circuit: "C880", Vhigh: 5, Vlow: 3.9,
		SlackFactor: 1.2, SimWords: 256, Seed: 1, Algorithm: "Gscale",
		PowerUW: 59, ImprovePct: 26.4, WorstSlackNs: 0.004, Gates: 157,
		LowGates: 150, LCs: 2, Sized: 18, LowRatio: 0.9554, AreaIncrease: 0.095, Pareto: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"index":1,"circuit":"C880","vhigh":5,"vlow":3.9,"slack_factor":1.2,` +
		`"sim_words":256,"seed":1,"algorithm":"Gscale","power_uw":59,"improve_pct":26.4,` +
		`"worst_slack_ns":0.004,"gates":157,"low_gates":150,"lcs":2,"sized":18,` +
		`"low_ratio":0.9554,"area_increase":0.095,"pareto":true}`
	if string(b) != want {
		t.Fatalf("sweep row encoding drifted:\n got %s\nwant %s", b, want)
	}
}
