// Remote: the same job, once over the network and once in-process, proving
// the Runner abstraction keeps them bit-identical. The program connects to a
// running `dualvdd serve`, submits one benchmark through the client package,
// streams its progress events, then runs the identical Flow locally and
// diffs every deterministic field of the results. CI uses it as the
// end-to-end smoke for the serve/client pair.
//
//	dualvdd serve -listen 127.0.0.1:8080 &
//	go run ./examples/remote -addr http://127.0.0.1:8080 -bench C880
//
// Exit status 0 means the remote and local rows matched exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"dualvdd"
	"dualvdd/client"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of a running dualvdd serve")
	bench := flag.String("bench", "C880", "MCNC benchmark to submit")
	seed := flag.Uint64("seed", 1, "random-simulation seed (the flow is deterministic in it)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c, err := client.New(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		log.Fatal(err)
	}

	// Submit through the transport-agnostic Runner surface. The same two
	// lines against dualvdd.NewLocal() would run in-process.
	opts := []dualvdd.Option{dualvdd.WithSeed(*seed)}
	id, err := c.Submit(ctx, dualvdd.BenchmarkJob(*bench, opts...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s as %s\n", *bench, id)

	// Stream progress: the server re-emits the flow's typed events as SSE
	// and the client decodes them back into the same Go types.
	events, err := c.Watch(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for ev := range events {
		counts[dualvdd.EventKind(ev)]++
		switch e := ev.(type) {
		case dualvdd.EventMapped:
			fmt.Printf("mapped: %d gates, Tspec %.3f ns, original power %.2f uW\n",
				e.Gates, e.Tspec, e.OrgPower*1e6)
		case dualvdd.EventRoundDone:
			fmt.Printf("  %s round %d: %d moves, %d low gates\n",
				e.Algorithm, e.Round, e.Moves, e.LowGates)
		case dualvdd.EventResult:
			fmt.Printf("%s: %.2f%% improvement\n", e.Result.Algorithm, e.Result.ImprovePct)
		}
	}
	fmt.Printf("event stream: %d mapped, %d moves, %d rounds, %d results\n",
		counts[dualvdd.EventKindMapped], counts[dualvdd.EventKindMove],
		counts[dualvdd.EventKindRoundDone], counts[dualvdd.EventKindResult])

	remote, err := c.Result(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	if remote.State != dualvdd.JobDone {
		log.Fatalf("job ended %s: %s", remote.State, remote.Error)
	}

	// The same flow, in-process.
	flow := dualvdd.New(opts...)
	d, err := flow.PrepareBenchmark(ctx, *bench)
	if err != nil {
		log.Fatal(err)
	}
	local, err := flow.Run(ctx, d)
	if err != nil {
		log.Fatal(err)
	}

	// Diff the Table 1 row: every deterministic field must match to the
	// bit. The wall clock (Runtime) legitimately differs.
	if len(remote.Results) != len(local) {
		log.Fatalf("remote returned %d results, local %d", len(remote.Results), len(local))
	}
	bad := 0
	for i, lr := range local {
		rr := remote.Results[i]
		check := func(field string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				fmt.Fprintf(os.Stderr, "MISMATCH %s.%s: remote %v local %v\n", lr.Algorithm, field, a, b)
				bad++
			}
		}
		check("Power", rr.Power, lr.Power)
		check("ImprovePct", rr.ImprovePct, lr.ImprovePct)
		check("LowRatio", rr.LowRatio, lr.LowRatio)
		check("AreaIncrease", rr.AreaIncrease, lr.AreaIncrease)
		if rr.Algorithm != lr.Algorithm || rr.Gates != lr.Gates || rr.LowGates != lr.LowGates ||
			rr.LCs != lr.LCs || rr.Sized != lr.Sized || rr.STAEvals != lr.STAEvals ||
			rr.CandEvals != lr.CandEvals || rr.SimTime != lr.SimTime {
			fmt.Fprintf(os.Stderr, "MISMATCH %s counters: remote %+v\n", lr.Algorithm, rr)
			bad++
		}
	}
	if bad > 0 {
		log.Fatalf("%d mismatches between remote and local results", bad)
	}
	fmt.Printf("remote == local: %d results bit-identical (Gscale %.2f%% improvement)\n",
		len(local), local[len(local)-1].ImprovePct)
}
