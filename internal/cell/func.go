// Package cell models the standard-cell library the paper builds on: the
// COMPASS 0.6 µm single-poly double-metal library of 72 combinational cells,
// enriched with low-voltage timing views and the level-restoration cell used
// at low-to-high driving boundaries.
//
// The paper characterised the low-voltage cells with SPICE; this package
// substitutes an analytic alpha-power-law derating (see Library.Derate),
// which preserves the quantities the algorithms consume: a per-gate delay
// penalty and a quadratic per-gate power gain when a cell is operated at Vlow.
package cell

import "fmt"

// Func identifies the boolean function a cell implements. The evaluation
// methods operate on 64-bit vectors so that logic simulation runs 64 input
// patterns per word.
type Func int

// Supported cell functions. Inverting functions come in three drive sizes
// (d0, d1, d2) in the default library, non-inverting ones in two (d0, d1),
// mirroring the paper's description of the COMPASS library.
const (
	FINV Func = iota // out = !a
	FBUF             // out = a
	FNAND2
	FNAND3
	FNAND4
	FNOR2
	FNOR3
	FNOR4
	FAND2
	FAND3
	FAND4
	FOR2
	FOR3
	FOR4
	FXOR2
	FXOR3
	FXNOR2
	FAOI21  // !((a&b) | c)
	FAOI22  // !((a&b) | (c&d))
	FAOI211 // !((a&b) | c | d)
	FOAI21  // !((a|b) & c)
	FOAI22  // !((a|b) & (c|d))
	FOAI211 // !((a|b) & c & d)
	FAO21   // (a&b) | c
	FAO22   // (a&b) | (c&d)
	FOA21   // (a|b) & c
	FOA22   // (a|b) & (c|d)
	FMUX21  // s ? b : a  (inputs a, b, s)
	FMAJ3   // majority(a,b,c)
	FLCONV  // level converter: logically a buffer, restores Vlow swing to Vhigh
	FTIE0   // constant 0 (no inputs); not part of the 72-cell set
	FTIE1   // constant 1 (no inputs); not part of the 72-cell set
	numFuncs
)

var funcNames = [...]string{
	FINV: "INV", FBUF: "BUF",
	FNAND2: "NAND2", FNAND3: "NAND3", FNAND4: "NAND4",
	FNOR2: "NOR2", FNOR3: "NOR3", FNOR4: "NOR4",
	FAND2: "AND2", FAND3: "AND3", FAND4: "AND4",
	FOR2: "OR2", FOR3: "OR3", FOR4: "OR4",
	FXOR2: "XOR2", FXOR3: "XOR3", FXNOR2: "XNOR2",
	FAOI21: "AOI21", FAOI22: "AOI22", FAOI211: "AOI211",
	FOAI21: "OAI21", FOAI22: "OAI22", FOAI211: "OAI211",
	FAO21: "AO21", FAO22: "AO22", FOA21: "OA21", FOA22: "OA22",
	FMUX21: "MUX21", FMAJ3: "MAJ3", FLCONV: "LCONV",
	FTIE0: "TIE0", FTIE1: "TIE1",
}

// String returns the conventional library name of the function.
func (f Func) String() string {
	if f < 0 || int(f) >= len(funcNames) {
		return fmt.Sprintf("Func(%d)", int(f))
	}
	return funcNames[f]
}

var funcInputs = [...]int{
	FINV: 1, FBUF: 1,
	FNAND2: 2, FNAND3: 3, FNAND4: 4,
	FNOR2: 2, FNOR3: 3, FNOR4: 4,
	FAND2: 2, FAND3: 3, FAND4: 4,
	FOR2: 2, FOR3: 3, FOR4: 4,
	FXOR2: 2, FXOR3: 3, FXNOR2: 2,
	FAOI21: 3, FAOI22: 4, FAOI211: 4,
	FOAI21: 3, FOAI22: 4, FOAI211: 4,
	FAO21: 3, FAO22: 4, FOA21: 3, FOA22: 4,
	FMUX21: 3, FMAJ3: 3, FLCONV: 1,
	FTIE0: 0, FTIE1: 0,
}

// MaxInputs is the pin count of the widest functions (NAND4, AOI22, AOI211
// and the other four-input ones). No cell has more inputs, so a per-pin
// table can be a fixed-size array of this length.
const MaxInputs = 4

// NumInputs returns the number of input pins of the function.
func (f Func) NumInputs() int { return funcInputs[f] }

// Eval computes the function over 64 parallel input patterns. in must hold
// NumInputs() words; pattern k of the result is the function applied to bit k
// of every input word.
func (f Func) Eval(in []uint64) uint64 {
	switch f {
	case FINV:
		return ^in[0]
	case FBUF, FLCONV:
		return in[0]
	case FNAND2:
		return ^(in[0] & in[1])
	case FNAND3:
		return ^(in[0] & in[1] & in[2])
	case FNAND4:
		return ^(in[0] & in[1] & in[2] & in[3])
	case FNOR2:
		return ^(in[0] | in[1])
	case FNOR3:
		return ^(in[0] | in[1] | in[2])
	case FNOR4:
		return ^(in[0] | in[1] | in[2] | in[3])
	case FAND2:
		return in[0] & in[1]
	case FAND3:
		return in[0] & in[1] & in[2]
	case FAND4:
		return in[0] & in[1] & in[2] & in[3]
	case FOR2:
		return in[0] | in[1]
	case FOR3:
		return in[0] | in[1] | in[2]
	case FOR4:
		return in[0] | in[1] | in[2] | in[3]
	case FXOR2:
		return in[0] ^ in[1]
	case FXOR3:
		return in[0] ^ in[1] ^ in[2]
	case FXNOR2:
		return ^(in[0] ^ in[1])
	case FAOI21:
		return ^((in[0] & in[1]) | in[2])
	case FAOI22:
		return ^((in[0] & in[1]) | (in[2] & in[3]))
	case FAOI211:
		return ^((in[0] & in[1]) | in[2] | in[3])
	case FOAI21:
		return ^((in[0] | in[1]) & in[2])
	case FOAI22:
		return ^((in[0] | in[1]) & (in[2] | in[3]))
	case FOAI211:
		return ^((in[0] | in[1]) & in[2] & in[3])
	case FAO21:
		return (in[0] & in[1]) | in[2]
	case FAO22:
		return (in[0] & in[1]) | (in[2] & in[3])
	case FOA21:
		return (in[0] | in[1]) & in[2]
	case FOA22:
		return (in[0] | in[1]) & (in[2] | in[3])
	case FMUX21:
		return (in[0] &^ in[2]) | (in[1] & in[2])
	case FMAJ3:
		return (in[0] & in[1]) | (in[1] & in[2]) | (in[0] & in[2])
	case FTIE0:
		return 0
	case FTIE1:
		return ^uint64(0)
	}
	panic("cell: Eval on unknown function " + f.String())
}

// TruthTable returns the function's truth table packed into a uint64, with
// input 0 as the least significant selector bit. Only defined for functions
// with at most 6 inputs (all of them).
func (f Func) TruthTable() uint64 {
	n := f.NumInputs()
	in := make([]uint64, n)
	// Bit r of word i is the value of input i in row r.
	for i := 0; i < n; i++ {
		var w uint64
		for r := 0; r < 64; r++ {
			if r>>uint(i)&1 == 1 {
				w |= 1 << uint(r)
			}
		}
		in[i] = w
	}
	tt := f.Eval(in)
	rows := uint(1) << uint(n)
	if rows < 64 {
		// Mask to the meaningful rows and replicate is unnecessary; keep low rows.
		tt &= (uint64(1) << rows) - 1
	}
	return tt
}
