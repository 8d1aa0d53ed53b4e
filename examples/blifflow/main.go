// blifflow demonstrates the file-based flow: materialise a benchmark as
// technology-independent BLIF, load it back through the public API, run
// Dscale, export the scaled mapped netlist, and re-parse it to verify the
// voltage annotations survive a round trip — the interchange path a
// downstream tool would use.
//
//	go run ./examples/blifflow
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/mcnc"
)

func main() {
	// 1. A source network, serialised the way MCNC circuits ship.
	net, err := mcnc.Generate("b9")
	if err != nil {
		log.Fatal(err)
	}
	var src bytes.Buffer
	if err := blif.WriteNetwork(&src, net); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialised %s: %d bytes of .names-form BLIF\n", net.Name, src.Len())

	// 2. Load through the public entry point and run the paper's flow.
	ctx := context.Background()
	d, err := dualvdd.New().LoadBLIF(ctx, bytes.NewReader(src.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.RunAlgorithm(ctx, dualvdd.AlgoDscale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Dscale: %.2f%% saved, %d low gates, %d level converters\n",
		res.ImprovePct, res.LowGates, res.LCs)

	// 3. Export the mapped, scaled result and prove it round-trips.
	var mapped bytes.Buffer
	if err := dualvdd.WriteBLIF(&mapped, res.Circuit); err != nil {
		log.Fatal(err)
	}
	back, err := blif.ParseCircuit(bytes.NewReader(mapped.Bytes()), d.Lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip: %d gates, %d at Vlow (want %d), %d converters (want %d)\n",
		back.NumLiveGates(), back.NumLowGates(), res.Circuit.NumLowGates(),
		back.NumLCs(), res.Circuit.NumLCs())
	if back.NumLowGates() != res.Circuit.NumLowGates() || back.NumLCs() != res.Circuit.NumLCs() {
		log.Fatal("round trip lost scaling information")
	}
	fmt.Println("ok: .volt annotations survive the interchange")
}
