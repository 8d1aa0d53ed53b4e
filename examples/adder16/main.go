// adder16 reproduces the paper's arithmetic workload (my_adder's structure)
// at 16 bits: it shows how the carry chain pins CVS down, how Dscale only
// nibbles at the scattered slack, and how Gscale's cut-based sizing unlocks
// the sum logic — then exports the Gscale result as annotated BLIF.
//
//	go run ./examples/adder16
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dualvdd"
	"dualvdd/internal/mcnc"
)

func main() {
	ctx := context.Background()
	net := mcnc.Adder("adder16", 16)
	d, err := dualvdd.New().Prepare(ctx, net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16-bit ripple adder: %d mapped gates, min delay %.2f ns, constraint %.2f ns\n",
		d.Circuit.NumLiveGates(), d.MinDelay, d.Tspec)
	fmt.Printf("original power: %.2f uW\n\n", d.OrgPower*1e6)
	fmt.Printf("%-8s %10s %8s %8s %6s %6s %8s\n",
		"algo", "power(uW)", "saved%", "low", "LCs", "sized", "area")

	var best *dualvdd.FlowResult
	for _, algo := range dualvdd.Algorithms() {
		res, runErr := d.RunAlgorithm(ctx, algo)
		if runErr != nil {
			log.Fatal(runErr)
		}
		fmt.Printf("%-8s %10.2f %8.2f %5d/%-3d %5d %6d %+7.1f%%\n",
			res.Algorithm, res.Power*1e6, res.ImprovePct,
			res.LowGates, res.Gates, res.LCs, res.Sized, res.AreaIncrease*100)
		best = res
	}

	out := "adder16_gscale.blif"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := dualvdd.WriteBLIF(f, best.Circuit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGscale netlist with .volt annotations written to %s\n", out)
}
