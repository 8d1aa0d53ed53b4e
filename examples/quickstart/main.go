// Quickstart: build a small circuit with the public API, run the paper's
// three algorithms through the Flow surface, and print what each one saves.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dualvdd"
	"dualvdd/internal/logic"
)

func main() {
	// A 4-bit carry chain with some side logic — enough structure for the
	// algorithms to disagree.
	n := logic.New("quickstart")
	var a, b [4]logic.Signal
	for i := range a {
		a[i] = n.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = n.AddPI(fmt.Sprintf("b%d", i))
	}
	carry := n.AddPI("cin")
	for i := 0; i < 4; i++ {
		x := n.AddNode(fmt.Sprintf("x%d", i), []logic.Signal{a[i], b[i]}, []logic.Cube{"10", "01"})
		s := n.AddNode(fmt.Sprintf("s%d", i), []logic.Signal{x, carry}, []logic.Cube{"10", "01"})
		carry = n.AddNode(fmt.Sprintf("c%d", i+1), []logic.Signal{a[i], b[i], carry},
			[]logic.Cube{"11-", "-11", "1-1"})
		n.AddPO(fmt.Sprintf("sum%d", i), s)
	}
	n.AddPO("cout", carry)

	// A Flow is the configured pipeline: prepare = technology-map against
	// the dual-voltage library, relax the timing constraint 20% as the
	// paper does, and measure original power; Run = the three algorithms
	// on fresh clones. The zero-option New reproduces the paper's setup.
	ctx := context.Background()
	flow := dualvdd.New(dualvdd.WithVoltages(5.0, 4.3))
	cfg := flow.Config()
	d, err := flow.Prepare(ctx, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d gates, constraint %.2f ns, original power %.2f uW at (%.1fV only)\n\n",
		d.Name, d.Circuit.NumLiveGates(), d.Tspec, d.OrgPower*1e6, cfg.Rails[0])

	results, err := flow.Run(ctx, d)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Printf("%-7s saves %5.2f%%  (%d of %d gates at %.1fV, %d level converters, %d resized)\n",
			res.Algorithm, res.ImprovePct, res.LowGates, res.Gates, cfg.Rails[1], res.LCs, res.Sized)
	}
	fmt.Println("\nGscale ≥ Dscale ≥ CVS — the paper's Table 1 in miniature.")
}
