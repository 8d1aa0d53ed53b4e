package cell

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestLibraryHas72CombinationalCells(t *testing.T) {
	lib := Compass06()
	n := 0
	for _, c := range lib.Cells {
		switch c.Function {
		case FLCONV, FTIE0, FTIE1:
			continue
		}
		n++
	}
	if n != CombinationalCellCount {
		t.Fatalf("library has %d combinational cells, want %d (the paper's COMPASS count)", n, CombinationalCellCount)
	}
}

// inverting lists the functions whose output inverts its inputs
// (NAND-like).
var inverting = map[Func]bool{
	FINV: true, FNAND2: true, FNAND3: true, FNAND4: true, FNOR2: true, FNOR3: true, FNOR4: true,
	FXNOR2: true, FAOI21: true, FAOI22: true, FAOI211: true, FOAI21: true, FOAI22: true, FOAI211: true,
}

func TestSizeStructureMatchesPaper(t *testing.T) {
	// "Cells with inverted outputs have three different sizes (d0, d1, d2),
	// while those with non-inverted outputs have only two."
	lib := Compass06()
	for fn := FINV; fn < FLCONV; fn++ {
		cs := lib.CellsOf(fn)
		if len(cs) == 0 {
			t.Fatalf("function %s missing from library", fn)
		}
		want := 2
		if inverting[fn] {
			want = 3
		}
		if len(cs) != want {
			t.Fatalf("%s has %d sizes, want %d", fn, len(cs), want)
		}
		for i, c := range cs {
			if c.Size != i {
				t.Fatalf("%s sizes out of order: got %d at position %d", fn, c.Size, i)
			}
		}
	}
}

func TestFuncTruthTables(t *testing.T) {
	cases := []struct {
		fn   Func
		want uint64
	}{
		{FINV, 0b01},
		{FBUF, 0b10},
		{FNAND2, 0b0111},
		{FNOR2, 0b0001},
		{FAND2, 0b1000},
		{FOR2, 0b1110},
		{FXOR2, 0b0110},
		{FXNOR2, 0b1001},
		// AOI21(a,b,c) = !((a&b)|c): rows (cba): 000→1,001→1(b? a=1,b=0,c=0→1)...
		{FAOI21, 0b00000111},
		{FOAI21, 0b00010111 ^ 0b00000000}, // computed below instead
	}
	for _, tc := range cases[:8] {
		if got := tc.fn.TruthTable(); got != tc.want {
			t.Errorf("%s truth table = %04b, want %04b", tc.fn, got, tc.want)
		}
	}
	// Structural identities over all 2^n rows.
	for row := 0; row < 8; row++ {
		a, b, c := uint64(row&1), uint64(row>>1&1), uint64(row>>2&1)
		if got := FAOI21.Eval([]uint64{a, b, c}) & 1; got != (^((a & b) | c))&1 {
			t.Fatalf("AOI21 row %d wrong", row)
		}
		if got := FOAI21.Eval([]uint64{a, b, c}) & 1; got != (^((a | b) & c))&1 {
			t.Fatalf("OAI21 row %d wrong", row)
		}
		if got := FMUX21.Eval([]uint64{a, b, c}) & 1; got != ((a&^c)|(b&c))&1 {
			t.Fatalf("MUX21 row %d wrong", row)
		}
		if got := FMAJ3.Eval([]uint64{a, b, c}) & 1; got != ((a&b)|(b&c)|(a&c))&1 {
			t.Fatalf("MAJ3 row %d wrong", row)
		}
	}
}

func TestEvalBitParallelMatchesRowWise(t *testing.T) {
	// Property: evaluating 64 rows at once equals per-row evaluation.
	f := func(w0, w1, w2, w3 uint64) bool {
		in := []uint64{w0, w1, w2, w3}
		for fn := FINV; fn < numFuncs; fn++ {
			k := fn.NumInputs()
			word := fn.Eval(in[:k])
			for bit := 0; bit < 64; bit += 7 {
				rows := make([]uint64, k)
				for i := 0; i < k; i++ {
					rows[i] = in[i] >> uint(bit) & 1
				}
				if fn.Eval(rows)&1 != word>>uint(bit)&1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertingOutputsAreComplemented(t *testing.T) {
	// An inverting function must output 1 on the all-zero input row for
	// AND-like shapes; verify via popcount symmetry: f and its complement
	// partition the rows.
	for fn := FINV; fn < FLCONV; fn++ {
		tt := fn.TruthTable()
		rows := 1 << uint(fn.NumInputs())
		ones := bits.OnesCount64(tt)
		if ones == 0 || ones == rows {
			t.Fatalf("%s is constant (%d of %d rows)", fn, ones, rows)
		}
	}
}

func TestLowRailDerateAboveOne(t *testing.T) {
	lib := Compass06()
	if lib.Derate(VLow) <= 1.0 {
		t.Fatalf("low-voltage derate %.4f must exceed 1 (low gates are slower)", lib.Derate(VLow))
	}
	if lib.Derate(VHigh) != 1.0 {
		t.Fatalf("high derate = %v, want 1", lib.Derate(VHigh))
	}
	if lib.Derate(VLow) != lib.Derate(lib.Deepest()) {
		t.Fatal("Derate(VLow) disagrees with Derate(Deepest()) on a two-rail library")
	}
}

func TestPowerRatioQuadratic(t *testing.T) {
	lib := Compass06()
	want := (4.3 * 4.3) / (5.0 * 5.0)
	if math.Abs(lib.PowerRatio()-want) > 1e-12 {
		t.Fatalf("power ratio = %.6f, want %.6f (equation (1) of the paper)", lib.PowerRatio(), want)
	}
}

func TestVoltageSweepMonotonicDerate(t *testing.T) {
	// Lower Vlow must mean more derating and more power saving.
	prev := 1.0
	for _, vlow := range []float64{4.7, 4.3, 3.9, 3.5, 3.1} {
		lib := Compass06Rails([]float64{5.0, vlow})
		if lib.Derate(VLow) <= prev {
			t.Fatalf("derate not increasing as Vlow drops: %.4f at %.1fV", lib.Derate(VLow), vlow)
		}
		prev = lib.Derate(VLow)
	}
}

func TestUpsizeDownsizeRoundTrip(t *testing.T) {
	lib := Compass06()
	for _, c := range lib.Cells {
		if up := lib.Upsize(c); up != nil {
			if up.Function != c.Function || up.Size != c.Size+1 {
				t.Fatalf("Upsize(%s) = %s", c.Name, up.Name)
			}
			if down := lib.Downsize(up); down != c {
				t.Fatalf("Downsize(Upsize(%s)) = %v", c.Name, down)
			}
			if up.Drive >= c.Drive {
				t.Fatalf("upsizing %s does not improve drive (%.1f -> %.1f)", c.Name, c.Drive, up.Drive)
			}
			if up.Area <= c.Area {
				t.Fatalf("upsizing %s is free area-wise", c.Name)
			}
			if up.InputCap[0] <= c.InputCap[0] {
				t.Fatalf("upsizing %s does not grow input pins", c.Name)
			}
		}
	}
	if invs := lib.CellsOf(FINV); lib.Upsize(invs[len(invs)-1]) != nil {
		t.Fatal("Upsize of largest cell must be nil")
	}
	if lib.Downsize(lib.Smallest(FINV)) != nil {
		t.Fatal("Downsize of smallest cell must be nil")
	}
}

// TestLookupsOutsideTheLibrary holds the per-function lookups to nil for a
// function outside the Func range.
func TestLookupsOutsideTheLibrary(t *testing.T) {
	lib := Compass06()
	for _, f := range []Func{numFuncs, -1} {
		if cs := lib.CellsOf(f); cs != nil {
			t.Fatalf("CellsOf(%s) = %d cells, want nil", f, len(cs))
		}
		if c := lib.Smallest(f); c != nil {
			t.Fatalf("Smallest(%s) = %s, want nil", f, c.Name)
		}
	}
	odd := &Cell{Name: "odd", Function: numFuncs + 3, Size: 1}
	if lib.Upsize(odd) != nil || lib.Downsize(odd) != nil {
		t.Fatal("resizing a cell of an unknown function must give nil")
	}
}

func TestDelayModelMonotonicInLoad(t *testing.T) {
	lib := Compass06()
	c := lib.Smallest(FNAND2)
	if c.Delay(0, 0.010, 1.0) <= c.Delay(0, 0.001, 1.0) {
		t.Fatal("delay must grow with load")
	}
	if c.Delay(0, 0.004, lib.Derate(VLow)) <= c.Delay(0, 0.004, 1.0) {
		t.Fatal("low-voltage delay must exceed high-voltage delay")
	}
}

func TestNewLibraryRejectsBadVoltages(t *testing.T) {
	cells := Compass06().Cells
	if _, err := NewLibraryRails("bad", cells, []float64{3.0, 3.5}, 0.8, 1.1); err == nil {
		t.Fatal("accepted Vlow >= Vhigh")
	}
	if _, err := NewLibraryRails("bad", cells, []float64{5.0, 0.5}, 0.8, 1.1); err == nil {
		t.Fatal("accepted Vlow <= Vt")
	}
}

func TestLevelConverterPresent(t *testing.T) {
	lib := Compass06()
	lc := lib.LevelConverter()
	if lc == nil || lc.Function != FLCONV {
		t.Fatal("library must provide a level converter")
	}
	if lc.NumInputs() != 1 {
		t.Fatalf("level converter has %d inputs, want 1", lc.NumInputs())
	}
}

func TestPinNames(t *testing.T) {
	for i, want := range []string{"A", "B", "C", "D"} {
		if got := PinName(i); got != want {
			t.Fatalf("PinName(%d) = %s, want %s", i, got, want)
		}
	}
}

// TestMaxInputsBoundsEveryFunc holds MaxInputs to the widest function: every
// Func and every library cell fits it, and some function reaches it. A wider
// function must raise the bound, which per-pin arrays sized by it rely on.
func TestMaxInputsBoundsEveryFunc(t *testing.T) {
	widest := 0
	for fn := Func(0); fn < numFuncs; fn++ {
		if fn.NumInputs() > MaxInputs {
			t.Errorf("%s has %d inputs, more than MaxInputs = %d", fn, fn.NumInputs(), MaxInputs)
		}
		widest = max(widest, fn.NumInputs())
	}
	if widest != MaxInputs {
		t.Errorf("the widest function has %d inputs, MaxInputs is %d", widest, MaxInputs)
	}
	for _, c := range Compass06().Cells {
		if len(c.Intrinsic) > MaxInputs || len(c.InputCap) > MaxInputs {
			t.Errorf("cell %s has %d pins, more than MaxInputs = %d", c.Name, len(c.Intrinsic), MaxInputs)
		}
	}
}
