package cell

import (
	"fmt"
	"math"
)

// family describes one logical cell family from which the sized variants of
// the default library are generated. Electrical numbers are era-plausible for
// a 0.6 µm process: capacitances in pF, delays in ns, drive in ns/pF, area in
// cell-grid units.
type family struct {
	fn    Func
	sizes int     // number of drive sizes (3 for inverting, 2 otherwise)
	area  float64 // d0 area
	cin   float64 // d0 per-pin input capacitance
	intr  float64 // d0 intrinsic delay of pin 0
	drive float64 // d0 output drive resistance
	cint  float64 // d0 internal equivalent capacitance
}

// compassFamilies lists the 29 cell families of the default library.
// 14 inverting families × 3 sizes + 15 non-inverting families × 2 sizes = 72
// combinational cells, matching the paper's description of the COMPASS
// 0.6 µm library ("cells with inverted outputs have three different sizes
// (d0, d1, d2), while those with non-inverted outputs have only two").
var compassFamilies = []family{
	// Inverting: 3 sizes each.
	{FINV, 3, 1.0, 0.0016, 0.25, 40.0, 0.0004},
	{FNAND2, 3, 1.4, 0.0018, 0.35, 45.0, 0.0006},
	{FNAND3, 3, 1.8, 0.0020, 0.45, 50.0, 0.0008},
	{FNAND4, 3, 2.3, 0.0022, 0.55, 55.0, 0.0010},
	{FNOR2, 3, 1.4, 0.0018, 0.40, 50.0, 0.0006},
	{FNOR3, 3, 1.9, 0.0020, 0.53, 57.5, 0.0008},
	{FNOR4, 3, 2.5, 0.0022, 0.65, 65.0, 0.0010},
	{FXNOR2, 3, 2.8, 0.0026, 0.70, 60.0, 0.0014},
	{FAOI21, 3, 1.9, 0.0020, 0.47, 52.5, 0.0008},
	{FAOI22, 3, 2.4, 0.0022, 0.55, 55.0, 0.0010},
	{FAOI211, 3, 2.6, 0.0022, 0.60, 57.5, 0.0010},
	{FOAI21, 3, 1.9, 0.0020, 0.50, 52.5, 0.0008},
	{FOAI22, 3, 2.4, 0.0022, 0.58, 55.0, 0.0010},
	{FOAI211, 3, 2.6, 0.0022, 0.62, 57.5, 0.0010},
	// Non-inverting: 2 sizes each.
	{FBUF, 2, 1.3, 0.0014, 0.45, 30.0, 0.0006},
	{FAND2, 2, 1.8, 0.0018, 0.50, 40.0, 0.0008},
	{FAND3, 2, 2.2, 0.0020, 0.60, 42.5, 0.0010},
	{FAND4, 2, 2.7, 0.0022, 0.70, 45.0, 0.0012},
	{FOR2, 2, 1.8, 0.0018, 0.55, 42.5, 0.0008},
	{FOR3, 2, 2.2, 0.0020, 0.68, 45.0, 0.0010},
	{FOR4, 2, 2.7, 0.0022, 0.78, 47.5, 0.0012},
	{FXOR2, 2, 2.8, 0.0026, 0.68, 55.0, 0.0014},
	{FXOR3, 2, 4.2, 0.0028, 0.95, 65.0, 0.0020},
	{FMUX21, 2, 2.6, 0.0022, 0.62, 50.0, 0.0012},
	{FMAJ3, 2, 3.0, 0.0024, 0.75, 55.0, 0.0014},
	{FAO21, 2, 2.3, 0.0020, 0.60, 45.0, 0.0010},
	{FAO22, 2, 2.8, 0.0022, 0.68, 47.5, 0.0012},
	{FOA21, 2, 2.3, 0.0020, 0.62, 45.0, 0.0010},
	{FOA22, 2, 2.8, 0.0022, 0.70, 47.5, 0.0012},
}

// sizeName maps a size index to the COMPASS-style suffix.
func sizeName(size int) string { return fmt.Sprintf("d%d", size) }

// buildFamily expands one family into its sized cells. Doubling the drive
// size halves the output resistance, doubles the input (and internal)
// capacitance, trims the intrinsic delay slightly, and costs extra area —
// the classic sizing trade-off Gscale exploits.
func buildFamily(f family) []*Cell {
	cells := make([]*Cell, 0, f.sizes)
	for s := 0; s < f.sizes; s++ {
		mult := float64(int(1) << uint(s))    // 1, 2, 4
		driveDiv := math.Pow(1.5, float64(s)) // drive improves 1.5x per step
		n := f.fn.NumInputs()
		caps := make([]float64, n)
		intr := make([]float64, n)
		capMult := 1 + float64(0.15*(mult-1)) // mostly the output stage scales; pins grow mildly
		for pin := 0; pin < n; pin++ {
			caps[pin] = f.cin * capMult
			// Later pins are marginally slower: a cheap stand-in for true
			// pin-to-pin SPICE data, enough to make pin order matter.
			intr[pin] = f.intr * (1 - float64(0.06*float64(s))) * (1 + float64(0.05*float64(pin)))
		}
		cells = append(cells, &Cell{
			Name:        fmt.Sprintf("%s_%s", f.fn, sizeName(s)),
			Function:    f.fn,
			Size:        s,
			Area:        f.area * (1 + float64(0.55*(mult-1))),
			InputCap:    caps,
			Intrinsic:   intr,
			Drive:       f.drive / driveDiv,
			InternalCap: f.cint * capMult,
		})
	}
	return cells
}

// Compass06 builds the default dual-voltage library: 72 combinational cells
// in the paper's size structure, a level converter, and tie cells, with
// supplies (5 V, 4.3 V) "in accordance with our internal design project" as
// the paper puts it.
func Compass06() *Library {
	return Compass06Rails([]float64{5.0, 4.3})
}

// Compass06Rails builds the default library over an arbitrary sorted rail
// table (descending): a pair for the classic dual-VDD setup, which the
// voltage-sweep ablation varies to explore alternatives to (5, 4.3); longer
// tables add swing-scaled level converters for every rail crossing.
func Compass06Rails(rails []float64) *Library {
	var cells []*Cell
	for _, f := range compassFamilies {
		cells = append(cells, buildFamily(f)...)
	}
	// Level converter (Usami–Horowitz style pass-gate restorer): one size.
	// It is logically a buffer whose input accepts a Vlow swing and whose
	// output swings to Vhigh. Its cost is what makes Dscale's gains "quite
	// limited" in the paper, so it carries a realistic price: noticeable
	// delay, input load, internal energy and a static component.
	cells = append(cells, &Cell{
		Name:        "LCONV_d0",
		Function:    FLCONV,
		Size:        0,
		Area:        1.8,
		InputCap:    []float64{0.0012},
		Intrinsic:   []float64{0.30},
		Drive:       25.0,
		InternalCap: 0.0004,
	})
	// Tie cells for constant nets (outside the 72-cell combinational set).
	cells = append(cells,
		&Cell{Name: "TIE0", Function: FTIE0, Size: 0, Area: 0.5, InputCap: []float64{}, Intrinsic: []float64{}, Drive: 150.0},
		&Cell{Name: "TIE1", Function: FTIE1, Size: 0, Area: 0.5, InputCap: []float64{}, Intrinsic: []float64{}, Drive: 150.0},
	)
	lib, err := NewLibraryRails("compass06", cells, rails, 0.8, 1.45)
	if err != nil {
		panic("cell: default library construction failed: " + err.Error())
	}
	return lib
}

// CombinationalCellCount is the number of ordinary combinational cells in the
// default library (excluding the level converter and tie cells); the paper
// reports 72 for the COMPASS library.
const CombinationalCellCount = 72
