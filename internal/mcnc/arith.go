package mcnc

import (
	"fmt"

	"dualvdd/internal/logic"
)

// Adder builds an n-bit ripple-carry adder (the structure of MCNC's
// "my_adder"): per bit a half-parity x=a⊕b, sum s=x⊕cin and a majority
// carry.
func Adder(name string, bits int) *logic.Network {
	n := logic.New(name)
	a := make([]logic.Signal, bits)
	b := make([]logic.Signal, bits)
	for i := 0; i < bits; i++ {
		a[i] = n.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < bits; i++ {
		b[i] = n.AddPI(fmt.Sprintf("b%d", i))
	}
	carry := n.AddPI("cin")
	for i := 0; i < bits; i++ {
		x := n.AddNode(fmt.Sprintf("x%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"10", "01"})
		s := n.AddNode(fmt.Sprintf("s%d", i), []logic.Signal{x, carry},
			[]logic.Cube{"10", "01"})
		co := n.AddNode(fmt.Sprintf("c%d", i+1), []logic.Signal{a[i], b[i], carry},
			[]logic.Cube{"11-", "-11", "1-1"})
		n.AddPO(fmt.Sprintf("sum%d", i), s)
		carry = co
	}
	n.AddPO("cout", carry)
	return n
}

// ALU builds an n-bit 4-operation ALU (ADD, AND, OR, XOR) with an
// all-zero flag, the flavour of MCNC's alu2/alu4/C880.
func ALU(name string, bits int) *logic.Network {
	n := logic.New(name)
	a := make([]logic.Signal, bits)
	b := make([]logic.Signal, bits)
	for i := 0; i < bits; i++ {
		a[i] = n.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < bits; i++ {
		b[i] = n.AddPI(fmt.Sprintf("b%d", i))
	}
	op0 := n.AddPI("op0")
	op1 := n.AddPI("op1")
	carry := n.AddPI("cin")
	for i := 0; i < bits; i++ {
		and := n.AddNode(fmt.Sprintf("and%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"11"})
		or := n.AddNode(fmt.Sprintf("or%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"1-", "-1"})
		xor := n.AddNode(fmt.Sprintf("xor%d", i), []logic.Signal{a[i], b[i]},
			[]logic.Cube{"10", "01"})
		sum := n.AddNode(fmt.Sprintf("sum%d", i), []logic.Signal{xor, carry},
			[]logic.Cube{"10", "01"})
		co := n.AddNode(fmt.Sprintf("c%d", i+1), []logic.Signal{a[i], b[i], carry},
			[]logic.Cube{"11-", "-11", "1-1"})
		carry = co
		// Result select over (op1, op0, and, or, xor-sum...): a 6-input
		// one-hot mux cover.
		r := n.AddNode(fmt.Sprintf("r%d", i),
			[]logic.Signal{op1, op0, and, or, xor, sum},
			[]logic.Cube{"001---", "01-1--", "10--1-", "11---1"})
		n.AddPO(fmt.Sprintf("res%d", i), r)
	}
	n.AddPO("cout", carry)
	return n
}

// orTree folds signals with binary OR nodes and returns the root.
func orTree(n *logic.Network, prefix string, xs []logic.Signal) logic.Signal {
	cnt := 0
	for len(xs) > 1 {
		var next []logic.Signal
		for i := 0; i+1 < len(xs); i += 2 {
			next = append(next, n.AddNode(fmt.Sprintf("%s%d", prefix, cnt),
				[]logic.Signal{xs[i], xs[i+1]}, []logic.Cube{"1-", "-1"}))
			cnt++
		}
		if len(xs)%2 == 1 {
			next = append(next, xs[len(xs)-1])
		}
		xs = next
	}
	return xs[0]
}

// xorTree folds signals with binary XOR nodes and returns the root.
func xorTree(n *logic.Network, prefix string, xs []logic.Signal) logic.Signal {
	cnt := 0
	for len(xs) > 1 {
		var next []logic.Signal
		for i := 0; i+1 < len(xs); i += 2 {
			next = append(next, n.AddNode(fmt.Sprintf("%s%d", prefix, cnt),
				[]logic.Signal{xs[i], xs[i+1]}, []logic.Cube{"10", "01"}))
			cnt++
		}
		if len(xs)%2 == 1 {
			next = append(next, xs[len(xs)-1])
		}
		xs = next
	}
	return xs[0]
}

// ECC builds a single-error-correction circuit over `bits` data inputs in
// the style of C499/C1355 (32-bit SEC): syndrome parity trees over indexed
// subsets plus per-bit correctors.
func ECC(name string, bits, synBits int) *logic.Network {
	if 1<<uint(synBits) <= bits {
		panic(fmt.Sprintf("mcnc: ECC needs 2^synBits > bits to encode one-based positions (%d, %d)", bits, synBits))
	}
	n := logic.New(name)
	data := make([]logic.Signal, bits)
	for i := 0; i < bits; i++ {
		data[i] = n.AddPI(fmt.Sprintf("d%d", i))
	}
	checks := make([]logic.Signal, synBits)
	for j := 0; j < synBits; j++ {
		checks[j] = n.AddPI(fmt.Sprintf("chk%d", j))
	}
	// Syndrome j: parity of all data bits whose one-based position has bit
	// j set, XORed with the incoming check bit. Positions are one-based à la
	// Hamming so the all-zero syndrome unambiguously means "no error".
	syn := make([]logic.Signal, synBits)
	for j := 0; j < synBits; j++ {
		var members []logic.Signal
		for i := 0; i < bits; i++ {
			if (i+1)>>uint(j)&1 == 1 {
				members = append(members, data[i])
			}
		}
		members = append(members, checks[j])
		syn[j] = xorTree(n, fmt.Sprintf("syn%d_", j), members)
	}
	// Correct each data bit: flip when the syndrome equals its position.
	for i := 0; i < bits; i++ {
		fanin := make([]logic.Signal, synBits)
		row := make([]byte, synBits)
		copy(fanin, syn)
		for j := 0; j < synBits; j++ {
			if (i+1)>>uint(j)&1 == 1 {
				row[j] = '1'
			} else {
				row[j] = '0'
			}
		}
		match := n.AddNode(fmt.Sprintf("m%d", i), fanin, []logic.Cube{logic.Cube(row)})
		out := n.AddNode(fmt.Sprintf("o%d", i), []logic.Signal{data[i], match},
			[]logic.Cube{"10", "01"})
		n.AddPO(fmt.Sprintf("out%d", i), out)
	}
	return n
}

// MuxTree builds a 2^sel : 1 multiplexer (MCNC's "mux").
func MuxTree(name string, sel int) *logic.Network {
	n := logic.New(name)
	words := 1 << uint(sel)
	data := make([]logic.Signal, words)
	for i := 0; i < words; i++ {
		data[i] = n.AddPI(fmt.Sprintf("d%d", i))
	}
	selSig := make([]logic.Signal, sel)
	for j := 0; j < sel; j++ {
		selSig[j] = n.AddPI(fmt.Sprintf("s%d", j))
	}
	layer := data
	for j := 0; j < sel; j++ {
		var next []logic.Signal
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, n.AddNode(fmt.Sprintf("mx%d_%d", j, i/2),
				[]logic.Signal{layer[i], layer[i+1], selSig[j]},
				[]logic.Cube{"1-0", "-11"}))
		}
		layer = next
	}
	n.AddPO("out", layer[0])
	return n
}

// Priority builds `ways` interleaved priority-encoder channels over `width`
// request lines each, with an acknowledge combine — the flavour of C432's
// 27-channel interrupt controller.
func Priority(name string, width, ways int) *logic.Network {
	n := logic.New(name)
	req := make([][]logic.Signal, ways)
	for w := 0; w < ways; w++ {
		req[w] = make([]logic.Signal, width)
		for i := 0; i < width; i++ {
			req[w][i] = n.AddPI(fmt.Sprintf("r%d_%d", w, i))
		}
	}
	en := make([]logic.Signal, ways)
	for w := 0; w < ways; w++ {
		en[w] = n.AddPI(fmt.Sprintf("en%d", w))
	}
	var anyGrant []logic.Signal
	for w := 0; w < ways; w++ {
		// noHigher[i] = none of req[i+1..width-1] asserted.
		noHigher := make([]logic.Signal, width)
		for i := width - 1; i >= 0; i-- {
			if i == width-1 {
				noHigher[i] = n.AddNode(fmt.Sprintf("nh%d_%d", w, i),
					[]logic.Signal{req[w][i]}, []logic.Cube{"0"})
				continue
			}
			noHigher[i] = n.AddNode(fmt.Sprintf("nh%d_%d", w, i),
				[]logic.Signal{req[w][i+1], noHigher[i+1]}, []logic.Cube{"01"})
		}
		for i := 0; i < width; i++ {
			var grant logic.Signal
			if i == width-1 {
				grant = n.AddNode(fmt.Sprintf("g%d_%d", w, i),
					[]logic.Signal{req[w][i], en[w]}, []logic.Cube{"11"})
			} else {
				grant = n.AddNode(fmt.Sprintf("g%d_%d", w, i),
					[]logic.Signal{req[w][i], noHigher[i], en[w]}, []logic.Cube{"111"})
			}
			n.AddPO(fmt.Sprintf("grant%d_%d", w, i), grant)
			anyGrant = append(anyGrant, grant)
		}
	}
	n.AddPO("any", orTree(n, "any_", anyGrant))
	return n
}
