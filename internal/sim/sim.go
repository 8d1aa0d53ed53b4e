// Package sim is the random-vector logic simulator behind the paper's power
// numbers: "the generic SIS power estimation function, which comprises random
// simulations using 20 MHz clock frequency". It evaluates a mapped circuit
// over pseudo-random input vectors, 64 patterns per machine word, and returns
// the per-net 0→1 switching activity that the power model consumes — one
// entry per signal, the paper's a0→1 in equation (1).
//
// Two engines produce bit-identical activity tables: the compiled engine
// (Compile lowers the netlist to a flat levelized instruction tape that
// Program.Run executes in 16-word blocks, in one serial pass), and the
// original per-gate interpreter, kept as RunReference/EvalReference — the
// differential oracle the compiled engine is tested against. Run and Eval are
// the compiled fast path every caller uses.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"dualvdd/internal/netlist"
)

// runs and wordEvals are process-wide instrumentation: how many compiled
// simulations ran and how many word×gate evaluations they spent. The
// warm-vs-cold sweep benchmark reads them to quantify the simulations a
// shared activity table avoids; they have no functional effect.
var (
	runs      atomic.Int64
	wordEvals atomic.Int64
)

// Runs returns the process-wide count of compiled simulation runs.
func Runs() int64 { return runs.Load() }

// WordEvals returns the process-wide count of word×gate evaluations spent by
// compiled simulation runs — the work metric a run of w words over g live
// gates pays w·g of.
func WordEvals() int64 { return wordEvals.Load() }

// splitmix64 is the deterministic PRNG used for input vectors; seeding makes
// every power estimate in the repository reproducible bit-for-bit.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// piWord returns the 64-vector word of primary input pi at word index w.
func piWord(seed uint64, pi, w int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(pi)*0x9e3779b97f4a7c15+uint64(w)+1))
}

// Run simulates words×64 random vectors (one per clock cycle) and returns
// the 0→1 switching activity of every signal; dead gates keep zero. It
// compiles the circuit and executes the tape; the table is bit-identical to
// RunReference's. A cancelled or expired ctx stops the run at the next
// 16-word block with ctx.Err().
func Run(ctx context.Context, c *netlist.Circuit, words int, seed uint64) ([]float64, error) {
	if words < 1 {
		return nil, fmt.Errorf("sim: need at least one word of vectors, got %d", words)
	}
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	runs.Add(1)
	wordEvals.Add(int64(words) * int64(c.NumLiveGates()))
	return p.Run(ctx, words, seed)
}

// RunReference is the original per-gate interpreter, retained as the
// differential oracle for the compiled engine. It returns the activity table
// Run returns, bit for bit, one gate dispatch per word.
func RunReference(c *netlist.Circuit, words int, seed uint64) ([]float64, error) {
	if words < 1 {
		return nil, fmt.Errorf("sim: need at least one word of vectors, got %d", words)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	nSig := c.NumSignals()
	vals := make([]uint64, nSig)
	rises := make([]int, nSig)
	lastBit := make([]uint64, nSig) // value of the final cycle of the previous word (bit 0)
	in := make([]uint64, 8)

	for w := 0; w < words; w++ {
		for pi := 0; pi < len(c.PIs); pi++ {
			vals[pi] = piWord(seed, pi, w)
		}
		for _, gi := range order {
			g := c.Gates[gi]
			inw := in[:len(g.In)]
			for i, s := range g.In {
				inw[i] = vals[s]
			}
			vals[c.GateSignal(gi)] = g.Cell.Function.Eval(inw)
		}
		for s := 0; s < nSig; s++ {
			if gi := c.GateIndex(netlist.Signal(s)); gi >= 0 && c.Gates[gi].Dead {
				continue
			}
			v := vals[s]
			// Rises inside the word: cycle i -> i+1 is bit i -> bit i+1.
			rises[s] += bits.OnesCount64(^v & (v >> 1) & 0x7fffffffffffffff)
			if w > 0 {
				// Boundary: last cycle of previous word -> first of this one.
				if lastBit[s] == 0 && v&1 == 1 {
					rises[s]++
				}
			}
			lastBit[s] = v >> 63
		}
	}
	act := make([]float64, nSig)
	cycles := float64(words*64 - 1)
	for s := range act {
		act[s] = float64(rises[s]) / cycles
	}
	return act, nil
}

// Eval runs the circuit over caller-supplied PI words and returns the PO
// words, for functional-equivalence checking (e.g. mapper verification).
// Compiled; bit-identical to EvalReference.
func Eval(c *netlist.Circuit, piWords []uint64) ([]uint64, error) {
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return p.Eval(piWords)
}

// EvalReference is the interpreted counterpart of Eval, retained as the
// differential oracle.
func EvalReference(c *netlist.Circuit, piWords []uint64) ([]uint64, error) {
	if len(piWords) != len(c.PIs) {
		return nil, fmt.Errorf("sim: Eval got %d PI words for %d PIs", len(piWords), len(c.PIs))
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, c.NumSignals())
	copy(vals, piWords)
	in := make([]uint64, 8)
	for _, gi := range order {
		g := c.Gates[gi]
		inw := in[:len(g.In)]
		for i, s := range g.In {
			inw[i] = vals[s]
		}
		vals[c.GateSignal(gi)] = g.Cell.Function.Eval(inw)
	}
	out := make([]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = vals[po.Src]
	}
	return out, nil
}
