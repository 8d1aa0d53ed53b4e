package cell

import (
	"fmt"
	"math"
	"sort"
)

// VoltLevel selects which supply rail powers a gate instance. It is an index
// into the library's sorted rail table: 0 is the highest (nominal) supply and
// larger indices are progressively lower rails. The classic dual-VDD setup is
// the two-entry special case.
type VoltLevel int

const (
	// VHigh is the nominal supply (5 V in the paper's setup), rail index 0.
	VHigh VoltLevel = iota
	// VLow is the reduced supply (4.3 V in the paper's setup). In a
	// multi-rail library it names rail index 1, the first step down.
	VLow
)

// String returns "Vhigh", "Vlow", or "V<index>" for deeper rails.
func (v VoltLevel) String() string {
	switch v {
	case VHigh:
		return "Vhigh"
	case VLow:
		return "Vlow"
	default:
		return fmt.Sprintf("V%d", int(v))
	}
}

// Cell is one sized library cell. Delay follows the pin-to-pin Elmore-style
// model the paper's evaluation uses: delay(pin→out) = Intrinsic[pin] +
// Drive·Cload, scaled by the voltage derating factor of the instance's rail.
type Cell struct {
	// Name is the library cell name, e.g. "NAND2_d1".
	Name string
	// Function is the boolean function of the cell.
	Function Func
	// Size is the drive-size index: 0 (d0), 1 (d1) or 2 (d2).
	Size int
	// Area is the layout area in cell-grid units.
	Area float64
	// InputCap is the input pin capacitance in pF, one entry per pin.
	InputCap []float64
	// Intrinsic is the pin-to-pin intrinsic delay in ns, one entry per pin.
	Intrinsic []float64
	// Drive is the output drive resistance in ns/pF.
	Drive float64
	// InternalCap models internal switching energy as an equivalent
	// capacitance in pF charged once per output transition.
	InternalCap float64
}

// Delay returns the pin-to-pin delay in ns from input pin to output for a
// given output load (pF) and voltage derating factor (1.0 at Vhigh). The
// conversions round the product and the result, so no platform fuses them
// into a multiply-add and the bits are the same on every GOARCH.
func (c *Cell) Delay(pin int, load, derate float64) float64 {
	return float64((c.Intrinsic[pin] + float64(c.Drive*load)) * derate)
}

// MaxDelay returns the worst pin-to-pin delay for the load and derating.
func (c *Cell) MaxDelay(load, derate float64) float64 {
	worst := 0.0
	for pin := range c.Intrinsic {
		if d := c.Delay(pin, load, derate); d > worst {
			worst = d
		}
	}
	return worst
}

// NumInputs returns the number of input pins.
func (c *Cell) NumInputs() int { return len(c.InputCap) }

// PinName returns the conventional formal pin name used by the BLIF .gate
// reader/writer: inputs are "A".."D", the output is "O".
func PinName(pin int) string { return string(rune('A' + pin)) }

// Library is a characterised multi-voltage cell library. It owns the cells,
// the sorted rail table, and the derating model that stands in for the
// paper's SPICE characterisation of the reduced-voltage cell copies. The
// two-rail (VDDH/VDDL) library of the paper is the k=2 special case.
type Library struct {
	// Name identifies the library ("compass06" for the default).
	Name string
	// Vt is the threshold voltage and Alpha the velocity-saturation exponent
	// of the alpha-power-law delay model delay ∝ Vdd/(Vdd−Vt)^Alpha.
	Vt, Alpha float64
	// WireCapPerFanout is the estimated routing capacitance in pF added to a
	// net's load for each fanout connection.
	WireCapPerFanout float64
	// POLoadCap is the capacitance in pF presented by a primary output.
	POLoadCap float64
	// LCStaticPower is the standing power in watts charged for each level
	// converter, modelling the DC component of the restoration circuitry.
	LCStaticPower float64

	// Cells lists every cell. The slice is never mutated after construction.
	Cells []*Cell

	byFunc [numFuncs][]*Cell // per function, sorted by Size ascending
	byName map[string]*Cell
	lconv  *Cell

	rails    []float64         // sorted descending; rails[0] is the nominal supply
	derates  []float64         // per-rail delay multipliers; derates[0] == 1.0
	lcPair   [][]*Cell         // [from][to] level converter for a from→to crossing (from > to)
	lcStatic map[*Cell]float64 // per level-converter cell standing power in watts
}

// voltageFactor is the alpha-power-law delay factor Vdd/(Vdd−Vt)^Alpha.
func voltageFactor(vdd, vt, alpha float64) float64 {
	return vdd / math.Pow(vdd-vt, alpha)
}

// NewLibraryRails assembles a library over a sorted rail table (descending,
// rails[0] is the nominal supply), wiring up the per-function and per-name
// indices, the per-rail derating table, and the rail-pair level-converter
// table. The cell list must contain exactly one FLCONV cell; converters for
// the remaining rail pairs are synthesised from it, scaled by relative swing.
// At the two-entry table this is byte-for-byte the classic dual-VDD library:
// the single crossing's converter is the FLCONV cell itself.
func NewLibraryRails(name string, cells []*Cell, rails []float64, vt, alpha float64) (*Library, error) {
	if err := validateRails(rails, vt); err != nil {
		return nil, err
	}
	lib := &Library{
		Name:             name,
		Vt:               vt,
		Alpha:            alpha,
		WireCapPerFanout: 0.0004,
		POLoadCap:        0.008,
		LCStaticPower:    0.003e-6,
		Cells:            cells,
		byName:           make(map[string]*Cell),
	}
	for _, c := range cells {
		if len(c.InputCap) != c.Function.NumInputs() || len(c.Intrinsic) != c.Function.NumInputs() {
			return nil, fmt.Errorf("cell: %s has %d caps/%d intrinsics for %d-input function %s",
				c.Name, len(c.InputCap), len(c.Intrinsic), c.Function.NumInputs(), c.Function)
		}
		if _, dup := lib.byName[c.Name]; dup {
			return nil, fmt.Errorf("cell: duplicate cell name %s", c.Name)
		}
		lib.byName[c.Name] = c
		lib.byFunc[c.Function] = append(lib.byFunc[c.Function], c)
		if c.Function == FLCONV {
			lib.lconv = c
		}
	}
	for _, cs := range &lib.byFunc {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Size < cs[j].Size })
	}
	if lib.lconv == nil {
		return nil, fmt.Errorf("cell: library %s has no level converter (FLCONV) cell", name)
	}
	lib.retarget(rails)
	return lib, nil
}

// validateRails checks a rail table: at least two entries, finite, strictly
// descending, every rail above the threshold voltage.
func validateRails(rails []float64, vt float64) error {
	if len(rails) < 2 {
		return fmt.Errorf("cell: rail table needs at least two supplies, got %d", len(rails))
	}
	for i, r := range rails {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("cell: rail[%d] %v must be a positive finite voltage", i, r)
		}
		if r <= vt {
			return fmt.Errorf("cell: rail[%d] %.2f must exceed Vt %.2f", i, r, vt)
		}
		if i > 0 && r >= rails[i-1] {
			return fmt.Errorf("cell: rail[%d] %.2f must be below rail[%d] %.2f", i, r, i-1, rails[i-1])
		}
	}
	return nil
}

// retarget installs a rail table on the library: the per-rail derate table
// (the alpha-power-law ratio of each rail to the nominal one) and the
// rail-pair level-converter table. The crossing that spans the full table
// reuses the base FLCONV cell unchanged; narrower crossings get synthesised
// copies with intrinsic delay, internal switching capacitance and standing
// power scaled by their relative swing.
func (l *Library) retarget(rails []float64) {
	l.rails = append([]float64(nil), rails...)
	l.derates = make([]float64, len(rails))
	l.derates[0] = 1.0
	base := voltageFactor(rails[0], l.Vt, l.Alpha)
	for i := 1; i < len(rails); i++ {
		l.derates[i] = voltageFactor(rails[i], l.Vt, l.Alpha) / base
	}

	span := rails[0] - rails[len(rails)-1]
	l.lcPair = make([][]*Cell, len(rails))
	l.lcStatic = map[*Cell]float64{l.lconv: l.LCStaticPower}
	for from := 1; from < len(rails); from++ {
		l.lcPair[from] = make([]*Cell, from)
		for to := 0; to < from; to++ {
			scale := (rails[to] - rails[from]) / span
			if scale == 1.0 {
				l.lcPair[from][to] = l.lconv
				continue
			}
			c := *l.lconv
			c.Name = fmt.Sprintf("%s_r%dr%d", l.lconv.Name, from, to)
			c.Intrinsic = make([]float64, len(l.lconv.Intrinsic))
			for pin, d := range l.lconv.Intrinsic {
				c.Intrinsic[pin] = d * scale
			}
			c.InternalCap = l.lconv.InternalCap * scale
			l.lcPair[from][to] = &c
			l.lcStatic[&c] = l.LCStaticPower * scale
		}
	}
}

// AtRails returns a copy of the library retargeted to a different rail table.
// The copy shares the cell data (the Cells slice, the per-function and
// per-name indices, the level converter) with the receiver — cells are
// voltage-independent — so cell pointers obtained from either library are
// interchangeable. Only the per-rail derates and the rail-pair converter
// table are recomputed, with exactly the formulas NewLibraryRails uses, so
// the retargeted library is bit-identical to a from-scratch build at the same
// table. The nominal rail must match the receiver's: everything prepared at
// it (mapping, baseline timing, activities) stays valid across the retarget.
// This is what lets a sweep share one prepared circuit across its VDDL axis.
func (l *Library) AtRails(rails []float64) (*Library, error) {
	if err := validateRails(rails, l.Vt); err != nil {
		return nil, err
	}
	if rails[0] != l.rails[0] {
		return nil, fmt.Errorf("cell: retarget rail[0] %.2f must keep the nominal rail %.2f", rails[0], l.rails[0])
	}
	cp := *l
	cp.retarget(rails)
	return &cp, nil
}

// Derate returns the delay multiplier of a rail: 1.0 at VHigh, and strictly
// greater below it — low-voltage gates are slower.
func (l *Library) Derate(v VoltLevel) float64 { return l.derates[v] }

// VddOf returns the rail voltage of a level.
func (l *Library) VddOf(v VoltLevel) float64 { return l.rails[v] }

// Rails returns the sorted rail table. The slice is shared; callers must not
// modify it.
func (l *Library) Rails() []float64 { return l.rails }

// Deepest returns the lowest rail's level index.
func (l *Library) Deepest() VoltLevel { return VoltLevel(len(l.rails) - 1) }

// PowerRatio returns (Vlow/Vhigh)² for the deepest and the nominal rail, the
// per-gate switching power ratio that motivates the whole exercise (equation
// (1) of the paper).
func (l *Library) PowerRatio() float64 {
	r := l.rails[len(l.rails)-1] / l.rails[0]
	return r * r
}

// CellsOf returns the cells implementing a function, smallest drive first,
// or nil for a function outside the library. The returned slice is shared;
// callers must not modify it.
func (l *Library) CellsOf(f Func) []*Cell {
	if f < 0 || f >= numFuncs {
		return nil
	}
	return l.byFunc[f]
}

// CellByName looks a cell up by library name: one of Cells, or one of this
// library's rail-pair level converters (which stay out of the name index the
// AtRails copies share).
func (l *Library) CellByName(name string) (*Cell, bool) {
	if c, ok := l.byName[name]; ok {
		return c, true
	}
	for _, row := range l.lcPair {
		for _, c := range row {
			if c.Name == name {
				return c, true
			}
		}
	}
	return nil, false
}

// Smallest returns the minimum-drive cell of a function, or nil if the
// function is not in the library.
func (l *Library) Smallest(f Func) *Cell {
	cs := l.CellsOf(f)
	if len(cs) == 0 {
		return nil
	}
	return cs[0]
}

// Upsize returns the next larger cell of the same function, or nil when c is
// already the largest size.
func (l *Library) Upsize(c *Cell) *Cell {
	for _, cand := range l.CellsOf(c.Function) {
		if cand.Size == c.Size+1 {
			return cand
		}
	}
	return nil
}

// Downsize returns the next smaller cell of the same function, or nil.
func (l *Library) Downsize(c *Cell) *Cell {
	for _, cand := range l.CellsOf(c.Function) {
		if cand.Size == c.Size-1 {
			return cand
		}
	}
	return nil
}

// LevelConverter returns the level-restoration cell inserted at low→high
// driving boundaries (after Usami–Horowitz [8] and Wang et al. [10]). It is
// the converter for the full-span crossing, deepest rail to nominal.
func (l *Library) LevelConverter() *Cell { return l.lconv }

// LevelConverterFor returns the converter cell for a from→to rail crossing
// (from is the lower rail, so from > to as indices). The full-span crossing
// returns the base FLCONV cell; narrower crossings return swing-scaled
// copies.
func (l *Library) LevelConverterFor(from, to VoltLevel) *Cell {
	if from <= to || int(from) >= len(l.rails) || to < 0 {
		panic(fmt.Sprintf("cell: invalid level-converter pair %d→%d over %d rails", from, to, len(l.rails)))
	}
	return l.lcPair[from][to]
}

// LCStaticPowerFor returns the standing power of a level-converter cell:
// LCStaticPower for the base FLCONV cell, swing-scaled for pair cells. An
// unknown cell is charged the base rate.
func (l *Library) LCStaticPowerFor(c *Cell) float64 {
	if p, ok := l.lcStatic[c]; ok {
		return p
	}
	return l.LCStaticPower
}
