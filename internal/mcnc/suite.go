package mcnc

import (
	"fmt"
	"hash/fnv"

	"dualvdd/internal/logic"
)

// Spec describes one benchmark of the paper's 39-circuit MCNC test bed.
type Spec struct {
	// Name is the MCNC circuit name as printed in Tables 1 and 2.
	Name string
	// PaperGates is the paper's Table 2 "Org" gate count, the size target
	// the synthetic stand-in aims for.
	PaperGates int
	// Kind documents which generator produces the stand-in.
	Kind string
	// Build generates the technology-independent network.
	Build func() *logic.Network
}

// nameSeed derives a deterministic per-circuit random seed.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// rnd declares a random-logic benchmark stand-in.
func rnd(name string, paperGates, pis, pos, nodes int) Spec {
	return Spec{
		Name:       name,
		PaperGates: paperGates,
		Kind:       "random-logic",
		Build: func() *logic.Network {
			return randomNet(name, nameSeed(name), pis, pos, nodes, false)
		},
	}
}

// rndFold is rnd with output folding: loose logic is reduced into a few
// output trees, reproducing the CVS-hostile narrow-output structure of
// circuits like i2 and i3 (both nearly zero in the paper's Table 2).
func rndFold(name string, paperGates, pis, pos, nodes int) Spec {
	return Spec{
		Name:       name,
		PaperGates: paperGates,
		Kind:       "random-logic-folded",
		Build: func() *logic.Network {
			return randomNet(name, nameSeed(name), pis, pos, nodes, true)
		},
	}
}

// specs lists the full suite in the order of the paper's tables. Node counts
// of the random stand-ins were calibrated so the mapped gate counts land near
// the paper's Table 2 "Org" column under the default library and mapper.
var specs = []Spec{
	{Name: "C1355", PaperGates: 390, Kind: "sec-ecc",
		Build: func() *logic.Network { return ECC("C1355", 32, 6) }},
	rnd("C2670", 583, 157, 64, 345),
	rnd("C3540", 996, 50, 22, 590),
	{Name: "C432", PaperGates: 159, Kind: "priority-interrupt",
		Build: func() *logic.Network { return Priority("C432", 9, 3) }},
	{Name: "C499", PaperGates: 390, Kind: "sec-ecc",
		Build: func() *logic.Network { return ECC("C499", 32, 6) }},
	rnd("C5315", 1318, 178, 123, 780),
	rnd("C7552", 1957, 207, 108, 1160),
	{Name: "C880", PaperGates: 295, Kind: "alu",
		Build: func() *logic.Network { return ALU("C880", 9) }},
	{Name: "alu2", PaperGates: 291, Kind: "alu",
		Build: func() *logic.Network { return ALU("alu2", 8) }},
	{Name: "alu4", PaperGates: 573, Kind: "alu",
		Build: func() *logic.Network { return ALU("alu4", 16) }},
	rnd("apex6", 664, 135, 99, 393),
	rnd("apex7", 217, 49, 37, 128),
	rnd("b9", 111, 41, 21, 66),
	rnd("dalu", 706, 75, 16, 418),
	rnd("des", 2795, 256, 245, 1655),
	rnd("f51m", 81, 8, 8, 48),
	rnd("i1", 35, 25, 16, 21),
	rnd("i10", 2121, 257, 224, 1255),
	rndFold("i2", 102, 201, 1, 60),
	rndFold("i3", 114, 132, 6, 68),
	rnd("i5", 199, 133, 66, 118),
	rnd("i6", 456, 138, 67, 270),
	rnd("k2", 880, 45, 45, 520),
	rnd("lal", 86, 26, 19, 51),
	{Name: "mux", PaperGates: 60, Kind: "mux-tree",
		Build: func() *logic.Network { return MuxTree("mux", 4) }},
	{Name: "my_adder", PaperGates: 179, Kind: "ripple-adder",
		Build: func() *logic.Network { return Adder("my_adder", 32) }},
	rnd("pair", 1351, 173, 137, 800),
	rnd("pcle", 68, 19, 9, 40),
	rnd("pm1", 43, 16, 13, 26),
	rnd("rot", 585, 135, 107, 346),
	rnd("sct", 73, 19, 15, 44),
	rnd("term1", 136, 34, 10, 81),
	rnd("too_large", 253, 38, 3, 150),
	rnd("vda", 485, 17, 39, 287),
	rnd("x1", 260, 51, 35, 154),
	rnd("x2", 39, 10, 7, 24),
	rnd("x3", 625, 135, 99, 370),
	rnd("x4", 270, 94, 71, 160),
	{Name: "z4ml", PaperGates: 41, Kind: "ripple-adder",
		Build: func() *logic.Network { return Adder("z4ml", 6) }},
}

// Names returns the 39 circuit names in table order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Generate builds the stand-in network for a named benchmark.
func Generate(name string) (*logic.Network, error) {
	for _, s := range specs {
		if s.Name == name {
			n := s.Build()
			if err := n.Validate(); err != nil {
				return nil, fmt.Errorf("mcnc: generator for %s produced invalid network: %w", name, err)
			}
			return n, nil
		}
	}
	return nil, fmt.Errorf("mcnc: unknown benchmark %q", name)
}

// PaperGates returns the paper's Table 2 gate count for a benchmark, or 0 if
// unknown.
func PaperGates(name string) int {
	for _, s := range specs {
		if s.Name == name {
			return s.PaperGates
		}
	}
	return 0
}
