package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"dualvdd"
)

// gateCounters are the deterministic work counters of one pass. At a fixed
// seed they repeat exactly at any worker count and schedule.
type gateCounters struct {
	FullAnalyses int64 `json:"sta.full_analyses"`
	FullEvals    int64 `json:"sta.full_evals"`
	IncEvals     int64 `json:"sta.inc_evals"`
	CandEvals    int64 `json:"core.cand_evals"`
	WordEvals    int64 `json:"sim.word_evals"`
	Builds       int64 `json:"warm.builds"`
}

// countersJSON records the counters of one tables and one sweep pass at
// seed 1, per workload.
//
//go:embed counters.json
var countersJSON []byte

func gateOf(c counters, w passWork) gateCounters {
	return gateCounters{c.fullAnalyses, c.fullEvals, w.incEvals, w.candEvals, c.wordEvals, w.builds}
}

// measureGate runs one untimed tables pass and one sweep pass at seed 1.
func measureGate(ctx context.Context) map[string]gateCounters {
	flow := dualvdd.New(dualvdd.WithSeed(1))
	got := map[string]gateCounters{}

	c0 := readCounters()
	ops, _ := tablesPass(ctx, nil, flow, dualvdd.Benchmarks(), tablesWorkers)
	var tw passWork
	for _, op := range ops {
		tw.addResults(op.results)
	}
	got["tables"] = gateOf(readCounters().sub(c0), tw)

	c0 = readCounters()
	chains, _ := sweepPass(ctx, nil, flow, sweepWorkers)
	var sw passWork
	for _, ch := range chains {
		sw.builds += ch.builds
		for _, p := range ch.points {
			sw.addResults(p.results)
		}
	}
	got["sweep"] = gateOf(readCounters().sub(c0), sw)
	return got
}

// checkCounterGate fails when any counter differs from counters.json.
func checkCounterGate(ctx context.Context) error {
	var want map[string]gateCounters
	if err := json.Unmarshal(countersJSON, &want); err != nil {
		return fmt.Errorf("counters.json: %w", err)
	}
	got := measureGate(ctx)
	b, _ := json.MarshalIndent(got, "", "  ") // plain structs always encode
	fmt.Fprintf(os.Stderr, "perfbench: measured counters:\n%s\n", b)
	for _, name := range []string{"tables", "sweep"} {
		if got[name] != want[name] {
			return fmt.Errorf("counter drift on %s: got %+v, counters.json has %+v", name, got[name], want[name])
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: counters match counters.json")
	return nil
}
