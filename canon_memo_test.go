package dualvdd_test

import (
	"bytes"
	"strings"
	"testing"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/logic"
	"dualvdd/internal/mcnc"
)

// TestCanonicalMemoMatchesFreshEncoding holds the memoized canonical BLIF of
// every benchmark and every inline model of the key golden to a fresh
// parse-and-write of the job's input, on the miss that stores it and on the
// hit that reads it back.
func TestCanonicalMemoMatchesFreshEncoding(t *testing.T) {
	type input struct {
		label string
		job   dualvdd.Job
		net   func() (*logic.Network, error)
	}
	var inputs []input
	for _, name := range dualvdd.Benchmarks() {
		inputs = append(inputs, input{name, dualvdd.BenchmarkJob(name),
			func() (*logic.Network, error) { return mcnc.Generate(name) }})
	}
	for _, m := range keyInlineModels {
		inputs = append(inputs, input{"blif:" + m.name, dualvdd.BLIFJob(m.model),
			func() (*logic.Network, error) { return blif.ParseNetwork(strings.NewReader(m.model)) }})
	}
	dualvdd.ResetCanonMemo()
	for _, in := range inputs {
		net, err := in.net()
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		var fresh bytes.Buffer
		if err := blif.WriteNetwork(&fresh, net); err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		for _, memo := range []string{"cold", "warm"} {
			got, err := dualvdd.Canonical(in.job)
			if err != nil {
				t.Fatalf("%s, %s memo: %v", in.label, memo, err)
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("%s, %s memo: canonical BLIF differs from a fresh encoding", in.label, memo)
			}
		}
	}
}
