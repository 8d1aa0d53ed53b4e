package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"dualvdd"
)

// tablesWorkers is the worker count of a timed tables pass: one per core of
// the 2-core machine the benchmark is sized for, like cmd/tables' default.
const tablesWorkers = 2

// tablesRow is one circuit's deterministic Table 1/2 columns as the seed-1
// reference records them (copied from the snapshot cmd/tables wrote before
// the multi-rail rewrite).
type tablesRow struct {
	Name            string  `json:"name"`
	Gates           int     `json:"gates"`
	OrgPwrUW        float64 `json:"org_pwr_uw"`
	CVSPct          float64 `json:"cvs_pct"`
	DscalePct       float64 `json:"dscale_pct"`
	GscalePct       float64 `json:"gscale_pct"`
	DscaleSTAEvals  int64   `json:"dscale_sta_evals"`
	GscaleSTAEvals  int64   `json:"gscale_sta_evals"`
	DscaleCandEvals int64   `json:"dscale_cand_evals"`
}

//go:embed testdata/tables_seed1.json
var tablesSeed1JSON []byte

func tablesExpected() (map[string]tablesRow, error) {
	var rows []tablesRow
	if err := json.Unmarshal(tablesSeed1JSON, &rows); err != nil {
		return nil, fmt.Errorf("tables reference: %w", err)
	}
	out := make(map[string]tablesRow, len(rows))
	for _, r := range rows {
		out[r.Name] = r
	}
	return out, nil
}

// circuitOut is one tables op: a circuit prepared cold and run through the
// three algorithms.
type circuitOut struct {
	name    string
	orgPwr  float64
	results []*dualvdd.FlowResult
	err     error
}

// row is the op's Table 1/2 columns, in the reference's units.
func (c circuitOut) row() tablesRow {
	r := tablesRow{Name: c.name, OrgPwrUW: c.orgPwr * 1e6}
	if len(c.results) == 3 {
		r.Gates = c.results[0].Gates
		r.CVSPct = c.results[0].ImprovePct
		r.DscalePct = c.results[1].ImprovePct
		r.GscalePct = c.results[2].ImprovePct
		r.DscaleSTAEvals = c.results[1].STAEvals
		r.GscaleSTAEvals = c.results[2].STAEvals
		r.DscaleCandEvals = c.results[1].CandEvals
	}
	return r
}

// sameRow compares rows bit for bit.
func sameRow(a, b tablesRow) bool {
	bits := math.Float64bits
	return a.Name == b.Name && a.Gates == b.Gates &&
		bits(a.OrgPwrUW) == bits(b.OrgPwrUW) && bits(a.CVSPct) == bits(b.CVSPct) &&
		bits(a.DscalePct) == bits(b.DscalePct) && bits(a.GscalePct) == bits(b.GscalePct) &&
		a.DscaleSTAEvals == b.DscaleSTAEvals && a.GscaleSTAEvals == b.GscaleSTAEvals &&
		a.DscaleCandEvals == b.DscaleCandEvals
}

// tablesOp prepares one circuit cold and runs the three algorithms, the
// work cmd/tables does per row. A panic is the op's failure.
func tablesOp(ctx context.Context, tr *tracer, flow *dualvdd.Flow, name string) (out circuitOut) {
	out.name = name
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	pctx, ps := tr.begin(ctx, "flow.prepare", name)
	d, err := flow.PrepareBenchmark(pctx, name)
	ps.end()
	if err != nil {
		out.err = err
		return out
	}
	out.orgPwr = d.OrgPower
	for _, algo := range flow.Algorithms() {
		rctx, rs := tr.begin(ctx, "flow.run", name)
		res, err := d.RunAlgorithm(rctx, algo)
		call := rs.end()
		if err != nil {
			out.err = err
			return out
		}
		addStages(tr, call, res, flow.Config().SimWords, call.Start)
		out.results = append(out.results, res)
	}
	return out
}

// tablesPass runs every circuit once on the given number of workers and
// returns the ops in suite order with the pass's wall time.
func tablesPass(ctx context.Context, tr *tracer, flow *dualvdd.Flow, names []string, workers int) ([]circuitOut, float64) {
	start := time.Now()
	outs, _ := dualvdd.BatchMap(ctx, dualvdd.Batch{Workers: workers}, len(names),
		func(ctx context.Context, i int) (circuitOut, error) {
			return tablesOp(ctx, tr, flow, names[i]), nil // failures stay in the op, so no item is skipped
		})
	return outs, time.Since(start).Seconds()
}

// checkTables counts a pass's ops and their failures: an error or panic, a
// result differing from the reference pass (when given), a gate count
// differing from the suite's (the mapping does not depend on the seed), or
// at seed 1 any column differing from the recorded Table 1/2 reference.
func checkTables(out *outcome, ops, ref []circuitOut, want map[string]tablesRow, seed int64) int {
	ok := 0
	for i, c := range ops {
		out.attempted++
		w, known := want[c.name]
		switch {
		case c.err != nil:
			out.fail(false, "tables %s: %v", c.name, c.err)
		case ref != nil && (ref[i].err != nil || fingerprint(c.results) != fingerprint(ref[i].results) ||
			math.Float64bits(c.orgPwr) != math.Float64bits(ref[i].orgPwr)):
			out.fail(true, "tables %s: differs from the reference pass", c.name)
		case !known || c.row().Gates != w.Gates:
			out.fail(true, "tables %s: %d gates, reference %d", c.name, c.row().Gates, w.Gates)
		case seed == 1 && !sameRow(c.row(), w):
			out.fail(true, "tables %s: row %+v, reference %+v", c.name, c.row(), w)
		default:
			ok++
		}
	}
	return ok
}

// largestFirst orders the suite by descending mapped gate count, which the
// seed does not change. Issuing the largest circuits first keeps a 2-worker
// pass's makespan near half its work instead of depending on where the last
// large circuit lands.
func largestFirst(names []string, want map[string]tablesRow) []string {
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool { return want[out[i]].Gates > want[out[j]].Gates })
	return out
}

// runTables reproduces the paper's evaluation: every suite circuit prepared
// cold and run through CVS, Dscale and Gscale at the paper's configuration.
// Untraced, it runs an untimed 2-worker pass, then times whole 2-worker
// passes until the run's time is up and checks each against the untimed
// one. An op is a circuit, but the latency a
// tables user waits for is the whole pass, so the pass is the latency
// sample. Traced, it runs every circuit untraced and traced back to back on
// one goroutine, which also attributes allocation to the spans, and checks
// both and a 2-worker pass against each other.
func runTables(ctx context.Context, o options) (*outcome, error) {
	want, err := tablesExpected()
	if err != nil {
		return nil, err
	}
	flow := dualvdd.New(dualvdd.WithSeed(uint64(o.seed)))
	names := largestFirst(dualvdd.Benchmarks(), want)
	out := &outcome{}

	if o.trace {
		tr := newTracer(true)
		plain := make([]circuitOut, len(names))
		traced := make([]circuitOut, len(names))
		plainS, tracedS, moved := interleave(len(names),
			func(i int) { plain[i] = tablesOp(ctx, nil, flow, names[i]) },
			func(i int) { traced[i] = tablesOp(ctx, tr, flow, names[i]) })
		parallel, _ := tablesPass(ctx, nil, flow, names, tablesWorkers)
		checkTables(out, traced, plain, want, o.seed)
		checkTables(out, parallel, plain, want, o.seed)
		var w passWork
		for _, op := range traced {
			w.addResults(op.results)
		}
		spans := tr.take()
		out.layers = layersOf(statsOf(spans), moved, w)
		out.layers["trace.overhead_pct"] = (tracedS/plainS - 1) * 100
		out.spans = [][]span{spans}
		return out, nil
	}

	// An untimed first pass grows the heap and warms the process: a cold
	// pass costs 10-15% more CPU in garbage collection and page faults, and
	// varies twice as much. It is the reference the timed passes must match.
	first, _ := tablesPass(ctx, nil, flow, names, tablesWorkers)
	checkTables(out, first, nil, want, o.seed)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(out.passes) == 0 || time.Now().Before(deadline) {
		meter := startPass()
		ops, wall := tablesPass(ctx, nil, flow, names, tablesWorkers)
		cpu, rss := meter.end()
		ok := checkTables(out, ops, first, want, o.seed)
		out.passes = append(out.passes, timedPass{wall: wall, cpu: cpu, rssMB: rss, ops: ok, latMs: []float64{wall * 1e3}})
	}
	return out, nil
}
