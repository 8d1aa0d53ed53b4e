package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dualvdd"
)

// sweepCircuits are the suite circuits with 200 to 1000 mapped gates, in
// ascending size. Larger circuits would make the sweep mapping-bound and
// smaller ones per-point-overhead-bound. C499 and C1355 stay in although
// Gscale panics on them near VDDL 3.7 V: the panics are counted as failed
// points, so the fix shows as a drop in failures.
var sweepCircuits = []string{
	"C1355", "C499", "too_large", "x1", "x4", "alu4", "vda", "i6",
	"rot", "x3", "C2670", "apex6", "dalu", "k2", "C3540",
}

// sweepVDDL is the low-rail axis: 3.00 to 4.80 V in 0.02 V steps.
func sweepVDDL() []float64 {
	v := make([]float64, 91)
	for i := range v {
		v[i] = math.Round(300+2*float64(i)) / 100
	}
	return v
}

const (
	sweepVhigh   = 5.0
	sweepWorkers = 2 // circuit chains in parallel, one per core
	sweepChecks  = 6 // points re-checked cold per run
)

// pointOut is one sweep op: all three algorithms at one low rail.
type pointOut struct {
	results []*dualvdd.FlowResult
	lat     time.Duration
	err     error
}

// runAt runs one point on the warm design; a panic is the point's failure.
func runAt(ctx context.Context, tr *tracer, wd *dualvdd.WarmDesign, op string, vddl float64) (out pointOut) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := time.Now()
	rctx, rs := tr.begin(ctx, "warm.runat", op)
	res, err := wd.RunAt(rctx, []float64{sweepVhigh, vddl}, nil, nil)
	call := rs.end()
	out.lat = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	at := call.Start
	for _, r := range res {
		at = addStages(tr, call, r, 0, at)
	}
	out.results = res
	return out
}

// prepWarm builds a circuit's warm design: from scratch (prev nil) or, after
// a failed point, afresh over the already prepared design.
func prepWarm(ctx context.Context, tr *tracer, flow *dualvdd.Flow, name string, prev *dualvdd.WarmDesign) (wd *dualvdd.WarmDesign, err error) {
	defer func() {
		if r := recover(); r != nil {
			wd, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	_, ps := tr.begin(ctx, "warm.prep", name)
	defer ps.end()
	if prev == nil {
		return flow.PrepareWarmBenchmark(ctx, name)
	}
	return dualvdd.NewWarmDesign(prev.Design)
}

// chainOut is one circuit's chain of points.
type chainOut struct {
	points []pointOut
	builds int64
}

// sweepChain prepares one circuit once and walks its low-rail axis. After a
// failed point the chain continues on a rebuilt warm design.
func sweepChain(ctx context.Context, tr *tracer, flow *dualvdd.Flow, name string, vddl []float64) chainOut {
	out := chainOut{points: make([]pointOut, len(vddl))}
	wd, err := prepWarm(ctx, tr, flow, name, nil)
	out.builds++
	for i, v := range vddl {
		if err != nil {
			out.points[i] = pointOut{err: fmt.Errorf("prepare: %w", err)}
			continue
		}
		op := ""
		if tr != nil {
			op = fmt.Sprintf("%s@%.2f", name, v)
		}
		p := runAt(ctx, tr, wd, op, v)
		out.points[i] = p
		if p.err != nil {
			wd, err = prepWarm(ctx, tr, flow, name, wd)
			out.builds++
		}
	}
	return out
}

// sweepPass runs every chain on the given number of goroutines, scheduled
// like the warm sweep scheduler: chains in circuit order, each sequential.
func sweepPass(ctx context.Context, tr *tracer, flow *dualvdd.Flow, workers int) ([]chainOut, float64) {
	vddl := sweepVDDL()
	start := time.Now()
	chains, _ := dualvdd.BatchMap(ctx, dualvdd.Batch{Workers: workers}, len(sweepCircuits),
		func(ctx context.Context, c int) (chainOut, error) {
			return sweepChain(ctx, tr, flow, sweepCircuits[c], vddl), nil
		})
	return chains, time.Since(start).Seconds()
}

// checkSweep counts a pass's points and failures, comparing each point with
// the reference pass when one is given. It returns the successful points,
// their latencies and the pass's work totals.
func checkSweep(out *outcome, chains, ref []chainOut) (int, []float64, passWork) {
	vddl := sweepVDDL()
	ok := 0
	var lat []float64
	var w passWork
	for c, ch := range chains {
		w.builds += ch.builds
		for i, p := range ch.points {
			out.attempted++
			switch {
			case p.err != nil:
				out.fail(false, "sweep %s@%.2f: %v", sweepCircuits[c], vddl[i], p.err)
			case ref != nil && fingerprint(p.results) != fingerprint(ref[c].points[i].results):
				out.fail(true, "sweep %s@%.2f: differs from the first pass", sweepCircuits[c], vddl[i])
			default:
				ok++
				w.points++
				w.addResults(p.results)
				lat = append(lat, float64(p.lat)/1e6)
			}
		}
	}
	return ok, lat, w
}

// checkCold re-runs a seeded sample of points cold, each on a design
// prepared from scratch at the point's rails, and counts every warm result
// that differs as a wrong output.
func checkCold(ctx context.Context, out *outcome, chains []chainOut, seed int64) {
	vddl := sweepVDDL()
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < sweepChecks; k++ {
		c, i := rng.Intn(len(sweepCircuits)), rng.Intn(len(vddl))
		warm := chains[c].points[i]
		cold, err := coldPoint(ctx, sweepCircuits[c], vddl[i], seed)
		switch {
		case warm.err != nil:
			// Already counted; the cold run is only a reference for results.
		case err != nil:
			out.fail(true, "sweep %s@%.2f: cold reference failed: %v", sweepCircuits[c], vddl[i], err)
		case fingerprint(cold) != fingerprint(warm.results):
			out.fail(true, "sweep %s@%.2f: warm result differs from cold", sweepCircuits[c], vddl[i])
		}
	}
}

func coldPoint(ctx context.Context, name string, vddl float64, seed int64) (res []*dualvdd.FlowResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	flow := dualvdd.New(dualvdd.WithSeed(uint64(seed)), dualvdd.WithVoltages(sweepVhigh, vddl))
	d, err := flow.PrepareBenchmark(ctx, name)
	if err != nil {
		return nil, err
	}
	for _, algo := range flow.Algorithms() {
		r, err := d.RunAlgorithm(ctx, algo)
		if err != nil {
			return nil, err
		}
		res = append(res, r)
	}
	return res, nil
}

// runSweep is the warm design-space sweep: each circuit prepared once, then
// all three algorithms at every low rail of its axis. Untraced, it times
// whole passes on two chain goroutines until the run's time is up; traced,
// it runs every chain untraced and traced back to back on one goroutine.
func runSweep(ctx context.Context, o options) (*outcome, error) {
	flow := dualvdd.New(dualvdd.WithSeed(uint64(o.seed)))
	out := &outcome{}
	if o.trace {
		tr := newTracer(true)
		vddl := sweepVDDL()
		plain := make([]chainOut, len(sweepCircuits))
		traced := make([]chainOut, len(sweepCircuits))
		plainS, tracedS, moved := interleave(len(sweepCircuits),
			func(c int) { plain[c] = sweepChain(ctx, nil, flow, sweepCircuits[c], vddl) },
			func(c int) { traced[c] = sweepChain(ctx, tr, flow, sweepCircuits[c], vddl) })
		_, _, w := checkSweep(out, traced, plain)
		checkCold(ctx, out, traced, o.seed)
		spans := tr.take()
		out.layers = layersOf(statsOf(spans), moved, w)
		out.layers["trace.overhead_pct"] = (tracedS/plainS - 1) * 100
		out.spans = [][]span{spans}
		return out, nil
	}

	var first []chainOut
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(out.passes) == 0 || time.Now().Before(deadline) {
		meter := startPass()
		chains, wall := sweepPass(ctx, nil, flow, sweepWorkers)
		cpu, rss := meter.end()
		ok, lat, _ := checkSweep(out, chains, first)
		out.passes = append(out.passes, timedPass{wall: wall, cpu: cpu, rssMB: rss, ops: ok, latMs: lat})
		if first == nil {
			first = chains
		}
	}
	checkCold(ctx, out, first, o.seed)
	return out, nil
}
