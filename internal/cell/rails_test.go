package cell

import (
	"math"
	"testing"
)

// TestRailTableAccessors pins the rail-indexed view of a three-rail library:
// the table, its ends, the per-rail derates, and the level indices.
func TestRailTableAccessors(t *testing.T) {
	rails := []float64{5.0, 4.3, 3.6}
	lib := Compass06Rails(rails)
	got := lib.Rails()
	if len(got) != 3 {
		t.Fatalf("Rails() has %d entries, want 3", len(got))
	}
	for i, r := range rails {
		if got[i] != r {
			t.Fatalf("Rails()[%d] = %v, want %v", i, got[i], r)
		}
		if v := lib.VddOf(VoltLevel(i)); v != r {
			t.Fatalf("VddOf(%d) = %v, want %v", i, v, r)
		}
	}
	if lib.VddOf(VHigh) != 5.0 || lib.VddOf(lib.Deepest()) != 3.6 {
		t.Fatalf("rail ends = (%v, %v), want (5, 3.6)", lib.VddOf(VHigh), lib.VddOf(lib.Deepest()))
	}
	if lib.Deepest() != VoltLevel(2) {
		t.Fatalf("Deepest() = %v, want V2", lib.Deepest())
	}
	// Derates strictly increase down the table.
	if lib.Derate(VHigh) != 1.0 {
		t.Fatalf("Derate(VHigh) = %v, want 1", lib.Derate(VHigh))
	}
	if !(lib.Derate(VLow) > 1.0 && lib.Derate(2) > lib.Derate(VLow)) {
		t.Fatalf("derates not increasing: %v, %v", lib.Derate(VLow), lib.Derate(2))
	}
}

// TestVoltLevelString pins the level names used in reports and BLIF comments.
func TestVoltLevelString(t *testing.T) {
	for _, tc := range []struct {
		v    VoltLevel
		want string
	}{{VHigh, "Vhigh"}, {VLow, "Vlow"}, {VoltLevel(2), "V2"}, {VoltLevel(7), "V7"}} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("VoltLevel(%d).String() = %q, want %q", int(tc.v), got, tc.want)
		}
	}
}

// TestLevelConverterPairTable checks the rail-pair converter table: the
// full-span crossing reuses the base FLCONV cell at full price, narrower
// crossings get swing-scaled copies (delay, internal energy and standing
// power all scale with the restored swing).
func TestLevelConverterPairTable(t *testing.T) {
	lib := Compass06Rails([]float64{5.0, 4.3, 3.6})
	base := lib.LevelConverter()
	if full := lib.LevelConverterFor(2, 0); full != base {
		t.Fatalf("full-span converter is %s, want the base FLCONV cell", full.Name)
	}
	if p := lib.LCStaticPowerFor(base); p != lib.LCStaticPower {
		t.Fatalf("base converter standing power = %v, want %v", p, lib.LCStaticPower)
	}
	span := 5.0 - 3.6
	for _, tc := range []struct {
		from, to VoltLevel
		swing    float64
	}{{1, 0, 5.0 - 4.3}, {2, 1, 4.3 - 3.6}} {
		c := lib.LevelConverterFor(tc.from, tc.to)
		if c == base {
			t.Fatalf("crossing %v→%v reuses the base cell; want a scaled copy", tc.from, tc.to)
		}
		scale := tc.swing / span
		if got, want := c.Intrinsic[0], base.Intrinsic[0]*scale; math.Abs(got-want) > 1e-15 {
			t.Errorf("crossing %v→%v intrinsic = %v, want %v", tc.from, tc.to, got, want)
		}
		if got, want := c.InternalCap, base.InternalCap*scale; math.Abs(got-want) > 1e-15 {
			t.Errorf("crossing %v→%v internal cap = %v, want %v", tc.from, tc.to, got, want)
		}
		if got, want := lib.LCStaticPowerFor(c), lib.LCStaticPower*scale; math.Abs(got-want) > 1e-21 {
			t.Errorf("crossing %v→%v standing power = %v, want %v", tc.from, tc.to, got, want)
		}
	}
	// An invalid pair (upward or identity crossing) is a programming error.
	for _, bad := range [][2]VoltLevel{{0, 1}, {1, 1}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelConverterFor(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			lib.LevelConverterFor(bad[0], bad[1])
		}()
	}
}

// TestAtRailsMatchesFreshBuild pins the retarget identity the sweep engine
// leans on: a library retargeted with AtRails is bit-identical to one
// built from scratch at the same table, and shares the receiver's cell data.
func TestAtRailsMatchesFreshBuild(t *testing.T) {
	baseRails := Compass06Rails([]float64{5.0, 4.3, 3.6})
	re, err := baseRails.AtRails([]float64{5.0, 3.9, 3.2})
	if err != nil {
		t.Fatal(err)
	}
	fresh := Compass06Rails([]float64{5.0, 3.9, 3.2})
	if re.VddOf(re.Deepest()) != fresh.VddOf(fresh.Deepest()) || re.Derate(re.Deepest()) != fresh.Derate(fresh.Deepest()) {
		t.Fatalf("retargeted (Vlow %v, derate %v) != fresh (%v, %v)",
			re.VddOf(re.Deepest()), re.Derate(re.Deepest()), fresh.VddOf(fresh.Deepest()), fresh.Derate(fresh.Deepest()))
	}
	for v := VHigh; v <= re.Deepest(); v++ {
		if re.Derate(v) != fresh.Derate(v) {
			t.Fatalf("Derate(%v): retargeted %v != fresh %v", v, re.Derate(v), fresh.Derate(v))
		}
	}
	if re.Cells[0] != baseRails.Cells[0] {
		t.Fatal("AtRails must share cell data with the receiver")
	}

	two := Compass06()
	low, err := two.AtRails([]float64{5.0, 3.9})
	if err != nil {
		t.Fatal(err)
	}
	if want := Compass06Rails([]float64{5.0, 3.9}); low.Derate(VLow) != want.Derate(VLow) {
		t.Fatalf("AtRails pair derate %v != fresh %v", low.Derate(VLow), want.Derate(VLow))
	}

	// Retargets that break the table's invariants are rejected.
	if _, err := two.AtRails([]float64{5.0, 5.0}); err == nil {
		t.Fatal("AtRails accepted Vlow >= Vhigh")
	}
	if _, err := two.AtRails([]float64{5.0, 0.5}); err == nil {
		t.Fatal("AtRails accepted Vlow <= Vt")
	}
	if _, err := baseRails.AtRails([]float64{4.8, 3.9}); err == nil {
		t.Fatal("AtRails accepted a changed nominal rail")
	}
	if _, err := baseRails.AtRails([]float64{5.0}); err == nil {
		t.Fatal("AtRails accepted a one-entry table")
	}
	if _, err := baseRails.AtRails([]float64{5.0, 4.3, 4.3}); err == nil {
		t.Fatal("AtRails accepted a non-descending table")
	}
	if _, err := baseRails.AtRails([]float64{5.0, math.NaN()}); err == nil {
		t.Fatal("AtRails accepted a NaN rail")
	}
}

// TestCellByName resolves library names both ways.
func TestCellByName(t *testing.T) {
	lib := Compass06()
	c, ok := lib.CellByName("LCONV_d0")
	if !ok || c.Function != FLCONV {
		t.Fatalf("CellByName(LCONV_d0) = (%v, %v)", c, ok)
	}
	if _, ok := lib.CellByName("NO_SUCH_CELL"); ok {
		t.Fatal("CellByName resolved a nonexistent cell")
	}
}

// TestMaxDelayIsWorstPin pins MaxDelay against the per-pin model.
func TestMaxDelayIsWorstPin(t *testing.T) {
	lib := Compass06()
	c := lib.Smallest(FNAND2)
	worst := 0.0
	for pin := range c.Intrinsic {
		if d := c.Delay(pin, 0.004, 1.0); d > worst {
			worst = d
		}
	}
	if got := c.MaxDelay(0.004, 1.0); got != worst {
		t.Fatalf("MaxDelay = %v, want %v", got, worst)
	}
}
