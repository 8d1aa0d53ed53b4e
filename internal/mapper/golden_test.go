package mapper

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite testdata/mcnc.golden from the current mapper")

// bindingDigest hashes the per-gate (name, cell, dead) binding of a mapped
// circuit in gate order.
func bindingDigest(c *netlist.Circuit) [sha256.Size]byte {
	h := sha256.New()
	for _, g := range c.Gates {
		fmt.Fprintf(h, "%s %s %t\n", g.Name, g.Cell.Name, g.Dead)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestMCNCGolden pins the mapping of every MCNC stand-in at slack factors 1.0
// and 1.2: live gate count, MinDelay and Tspec as exact float bits, and a
// digest of the cell binding. Table 1/2 rows start from these netlists, so
// any change to covering or area recovery that moves a single bit shows here.
func TestMCNCGolden(t *testing.T) {
	lib := cell.Compass06()
	var b strings.Builder
	for _, name := range mcnc.Names() {
		net, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sf := range []float64{1.0, 1.2} {
			res, err := Map(net, lib, sf)
			if err != nil {
				t.Fatalf("%s at slack %.1f: %v", name, sf, err)
			}
			fmt.Fprintf(&b, "%s %.1f gates=%d min=%016x tspec=%016x cells=%x\n",
				name, sf, res.Circuit.NumLiveGates(),
				math.Float64bits(res.MinDelay), math.Float64bits(res.Tspec), bindingDigest(res.Circuit))
		}
	}
	path := filepath.Join("testdata", "mcnc.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/mapper -run TestMCNCGolden -update): %v", err)
	}
	got := strings.Split(b.String(), "\n")
	want := strings.Split(string(raw), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, mapper produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mapping drifted from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
