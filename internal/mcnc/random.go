// Package mcnc provides the benchmark workload for the paper's evaluation:
// the 39 MCNC circuits of Tables 1 and 2. The original suite is not
// redistributable here, so this package generates deterministic synthetic
// stand-ins under the same names: functional generators for the circuits
// whose structure is public knowledge (adders, ALUs, error-correction XOR
// trees, multiplexers, priority logic) and a seeded random-logic generator
// tuned so each circuit's post-mapping gate count lands near the paper's
// Table 2 "Org" column. See DESIGN.md §4 for why this substitution preserves
// the behaviour the algorithms depend on.
package mcnc

import (
	"fmt"
	"math/rand"

	"dualvdd/internal/logic"
)

// funcKind enumerates the node-function templates the random generator
// draws from, approximating the function mix of technology-independent
// MCNC logic after script.rugged.
type funcKind int

const (
	fAndLike funcKind = iota // one cube, random polarities
	fOrLike                  // one single-literal cube per fanin
	fXor2                    // 2-input parity
	fXnor2
	fMux // 3-input select
	fAoi // two-cube mixed and/or
)

// randomNet builds a connected random DAG of SOP nodes. Fanin selection
// prefers signals without a consumer yet, so almost all logic reaches the
// outputs and survives sweeping; a recency bias creates realistic depth.
func randomNet(name string, seed int64, nPI, nPO, nNodes int, fold bool) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	n := logic.New(name)
	var avail []logic.Signal
	for i := 0; i < nPI; i++ {
		avail = append(avail, n.AddPI(fmt.Sprintf("pi%d", i)))
	}
	unconsumed := map[logic.Signal]bool{}
	var unconsumedList []logic.Signal
	for _, s := range avail {
		unconsumed[s] = true
		unconsumedList = append(unconsumedList, s)
	}
	consume := func(s logic.Signal) {
		delete(unconsumed, s)
	}
	// Each node draws its fanins from a window reaching back from a random
	// cutoff. Low cutoffs create shallow logic hanging just above the PIs,
	// high cutoffs create deep chains — together they reproduce the wide
	// spread of output-cone depths real multi-output circuits have, which is
	// what gives CVS its non-critical regions to harvest.
	pickFanin := func(k int) []logic.Signal {
		picked := make([]logic.Signal, 0, k)
		seen := map[logic.Signal]bool{}
		reach := rng.Float64()
		reach *= reach // bias toward shallow windows
		limit := nPI + int(reach*float64(len(avail)-nPI))
		if limit < nPI {
			limit = nPI
		}
		if limit > len(avail) {
			limit = len(avail)
		}
		for len(picked) < k {
			var s logic.Signal
			if len(unconsumedList) > 0 && rng.Float64() < 0.55 {
				// Drain the never-used pool first (compacting lazily).
				i := rng.Intn(len(unconsumedList))
				s = unconsumedList[i]
				if !unconsumed[s] {
					unconsumedList[i] = unconsumedList[len(unconsumedList)-1]
					unconsumedList = unconsumedList[:len(unconsumedList)-1]
					continue
				}
			} else if limit > 0 {
				// Window-bounded pick, mildly biased toward the window top.
				off := rng.Intn(limit)
				if rng.Float64() < 0.5 {
					off = limit - 1 - rng.Intn(min(limit, 24))
				}
				s = avail[off]
			} else {
				s = avail[rng.Intn(len(avail))]
			}
			if seen[s] {
				continue
			}
			seen[s] = true
			picked = append(picked, s)
			consume(s)
		}
		return picked
	}

	polarity := func(k int) []byte {
		b := make([]byte, k)
		for i := range b {
			if rng.Float64() < 0.35 {
				b[i] = '0'
			} else {
				b[i] = '1'
			}
		}
		return b
	}

	for k := 0; k < nNodes; k++ {
		nin := 2
		switch r := rng.Float64(); {
		case r < 0.12:
			nin = 1
		case r < 0.60:
			nin = 2
		case r < 0.88:
			nin = 3
		default:
			nin = 4
		}
		if nin > len(avail) {
			nin = len(avail)
		}
		fanin := pickFanin(nin)
		var cubes []logic.Cube
		kind := fAndLike
		if nin == 2 {
			switch r := rng.Float64(); {
			case r < 0.40:
				kind = fAndLike
			case r < 0.72:
				kind = fOrLike
			case r < 0.88:
				kind = fXor2
			default:
				kind = fXnor2
			}
		} else if nin >= 3 {
			switch r := rng.Float64(); {
			case r < 0.40:
				kind = fAndLike
			case r < 0.70:
				kind = fOrLike
			case r < 0.85 && nin == 3:
				kind = fMux
			default:
				kind = fAoi
			}
		}
		switch kind {
		case fXor2:
			cubes = []logic.Cube{"10", "01"}
		case fXnor2:
			cubes = []logic.Cube{"11", "00"}
		case fMux:
			cubes = []logic.Cube{"1-0", "-11"}
		case fOrLike:
			for i := 0; i < nin; i++ {
				row := make([]byte, nin)
				for j := range row {
					row[j] = '-'
				}
				row[i] = polarity(1)[0]
				cubes = append(cubes, logic.Cube(row))
			}
		case fAoi:
			split := 1 + rng.Intn(nin-1)
			rowA := make([]byte, nin)
			rowB := make([]byte, nin)
			pol := polarity(nin)
			for j := 0; j < nin; j++ {
				rowA[j], rowB[j] = '-', '-'
				if j < split {
					rowA[j] = pol[j]
				} else {
					rowB[j] = pol[j]
				}
			}
			cubes = []logic.Cube{logic.Cube(rowA), logic.Cube(rowB)}
		default: // fAndLike, also the 1-input inverter/buffer case
			pol := polarity(nin)
			if nin == 1 {
				pol[0] = '0' // single-input nodes become inverters
			}
			cubes = []logic.Cube{logic.Cube(pol)}
		}
		out := n.AddNode(fmt.Sprintf("n%d", k), fanin, cubes)
		avail = append(avail, out)
		unconsumed[out] = true
		unconsumedList = append(unconsumedList, out)
	}

	// Outputs: everything still unconsumed must reach a PO. Folding loose
	// ends into OR trees narrows the circuit to its nominal PO count but
	// creates an output-side bottleneck that chokes CVS (the low cluster
	// cannot grow past a critical reduction tree) — which is exactly the
	// structure of MCNC's i2/i3, so folding is used only for such circuits.
	var loose []logic.Signal
	for _, s := range avail {
		if unconsumed[s] && !n.IsPI(s) {
			loose = append(loose, s)
		}
	}
	extra := 0
	for fold && len(loose) > nPO {
		a, b := loose[0], loose[1]
		loose = loose[2:]
		out := n.AddNode(fmt.Sprintf("fold%d", extra), []logic.Signal{a, b},
			[]logic.Cube{"1-", "-1"})
		extra++
		loose = append(loose, out)
	}
	for i, s := range loose {
		n.AddPO(fmt.Sprintf("po%d", i), s)
	}
	if len(loose) == 0 && len(avail) > nPI {
		n.AddPO("po0", avail[len(avail)-1])
	}
	return n
}
