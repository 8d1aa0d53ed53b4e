package sim

import (
	"context"
	"fmt"
	"math/bits"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// blockWords is the number of 64-pattern words one tape pass evaluates per
// instruction before moving to the next. Blocking amortises the per-gate
// dispatch over blockWords inner iterations of straight-line word ops (which
// the compiler can unroll and vectorise), instead of paying a dynamic
// dispatch per gate per word like the reference interpreter.
const blockWords = 16

// instr is one lowered gate: an opcode (the cell.Func) plus the operand
// signal indices, flattened so execution touches no Circuit, Gate or Cell
// memory at all.
type instr struct {
	op  uint8 // cell.Func of the gate
	out int32 // output signal index
	in  [4]int32
}

// Program is a circuit lowered to a flat, levelized instruction tape plus the
// signal bookkeeping Run and Eval need. A Program is immutable after Compile
// and safe for concurrent use; it is a snapshot — recompile after structural
// edits (voltage and size changes do not affect logic values, so the scaling
// loops compile once per simulation).
type Program struct {
	nPI   int
	nSig  int
	code  []instr
	stats []int32 // signals whose rises Run counts: PIs + live gate outputs, ascending
	poSrc []int32
}

// Compile lowers a mapped circuit into a Program. It fails on the same
// circuits TopoOrder rejects (cycles, dangling signals).
func Compile(c *netlist.Circuit) (*Program, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &Program{
		nPI:  len(c.PIs),
		nSig: c.NumSignals(),
		code: make([]instr, 0, len(order)),
	}
	for _, gi := range order {
		g := c.Gates[gi]
		ins := instr{op: uint8(g.Cell.Function), out: int32(c.GateSignal(gi))}
		if len(g.In) > len(ins.in) {
			return nil, fmt.Errorf("sim: gate %s has %d inputs, tape limit is %d", g.Name, len(g.In), len(ins.in))
		}
		for i, s := range g.In {
			ins.in[i] = int32(s)
		}
		p.code = append(p.code, ins)
	}
	for s := 0; s < p.nSig; s++ {
		if gi := c.GateIndex(netlist.Signal(s)); gi >= 0 && c.Gates[gi].Dead {
			continue
		}
		p.stats = append(p.stats, int32(s))
	}
	for _, po := range c.POs {
		p.poSrc = append(p.poSrc, int32(po.Src))
	}
	return p, nil
}

// fillPIs writes the pseudo-random primary-input words for block words
// [w0, w0+n) into the block-strided vals buffer.
func (p *Program) fillPIs(vals []uint64, seed uint64, w0, n int) {
	for pi := 0; pi < p.nPI; pi++ {
		base := pi * blockWords
		for k := 0; k < n; k++ {
			vals[base+k] = piWord(seed, pi, w0+k)
		}
	}
}

// execBlock runs the tape over the first n words of every signal's block.
// vals is block-strided: signal s occupies vals[s*blockWords : s*blockWords+n].
// The per-opcode inner loops mirror cell.Func.Eval formula for formula, so a
// compiled run is bit-identical to the interpreter.
func (p *Program) execBlock(vals []uint64, n int) {
	for ci := range p.code {
		ins := &p.code[ci]
		dst := vals[int(ins.out)*blockWords:][:n]
		switch cell.Func(ins.op) {
		case cell.FINV:
			a := vals[int(ins.in[0])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^a[k]
			}
		case cell.FBUF, cell.FLCONV:
			a := vals[int(ins.in[0])*blockWords:][:n]
			copy(dst, a)
		case cell.FNAND2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] & b[k])
			}
		case cell.FNAND3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] & b[k] & c[k])
			}
		case cell.FNAND4:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] & b[k] & c[k] & d[k])
			}
		case cell.FNOR2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] | b[k])
			}
		case cell.FNOR3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] | b[k] | c[k])
			}
		case cell.FNOR4:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] | b[k] | c[k] | d[k])
			}
		case cell.FAND2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] & b[k]
			}
		case cell.FAND3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] & b[k] & c[k]
			}
		case cell.FAND4:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] & b[k] & c[k] & d[k]
			}
		case cell.FOR2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] | b[k]
			}
		case cell.FOR3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] | b[k] | c[k]
			}
		case cell.FOR4:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] | b[k] | c[k] | d[k]
			}
		case cell.FXOR2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] ^ b[k]
			}
		case cell.FXOR3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = a[k] ^ b[k] ^ c[k]
			}
		case cell.FXNOR2:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^(a[k] ^ b[k])
			}
		case cell.FAOI21:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] & b[k]) | c[k])
			}
		case cell.FAOI22:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] & b[k]) | (c[k] & d[k]))
			}
		case cell.FAOI211:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] & b[k]) | c[k] | d[k])
			}
		case cell.FOAI21:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] | b[k]) & c[k])
			}
		case cell.FOAI22:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] | b[k]) & (c[k] | d[k]))
			}
		case cell.FOAI211:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = ^((a[k] | b[k]) & c[k] & d[k])
			}
		case cell.FAO21:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] & b[k]) | c[k]
			}
		case cell.FAO22:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] & b[k]) | (c[k] & d[k])
			}
		case cell.FOA21:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] | b[k]) & c[k]
			}
		case cell.FOA22:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			d := vals[int(ins.in[3])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] | b[k]) & (c[k] | d[k])
			}
		case cell.FMUX21:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] &^ c[k]) | (b[k] & c[k])
			}
		case cell.FMAJ3:
			a := vals[int(ins.in[0])*blockWords:][:n]
			b := vals[int(ins.in[1])*blockWords:][:n]
			c := vals[int(ins.in[2])*blockWords:][:n]
			for k := range dst {
				dst[k] = (a[k] & b[k]) | (b[k] & c[k]) | (a[k] & c[k])
			}
		case cell.FTIE0:
			for k := range dst {
				dst[k] = 0
			}
		case cell.FTIE1:
			for k := range dst {
				dst[k] = ^uint64(0)
			}
		default:
			panic("sim: compiled tape holds unknown opcode " + cell.Func(ins.op).String())
		}
	}
}

// Run simulates words×64 random vectors in one serial pass over 16-word
// blocks and returns the 0→1 switching activity per signal. Rises are
// counted as integers and divided once, so the table is bit-identical to
// RunReference's. A cancelled or expired ctx stops the run at the next block
// with ctx.Err().
func (p *Program) Run(ctx context.Context, words int, seed uint64) ([]float64, error) {
	if words < 1 {
		return nil, fmt.Errorf("sim: need at least one word of vectors, got %d", words)
	}
	vals := make([]uint64, p.nSig*blockWords)
	rises := make([]int64, p.nSig)
	// lastBit[s] holds the final cycle of the previous word in bit 0. It is
	// seeded to 1 so the branchless boundary term (^last & v & 1) contributes
	// nothing for the very first word of the run, which has no predecessor.
	lastBit := make([]uint64, p.nSig)
	for _, s := range p.stats {
		lastBit[s] = 1
	}
	for w0 := 0; w0 < words; w0 += blockWords {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := min(words-w0, blockWords)
		p.fillPIs(vals, seed, w0, n)
		p.execBlock(vals, n)
		for _, s := range p.stats {
			last, r := lastBit[s], rises[s]
			for _, v := range vals[int(s)*blockWords:][:n] {
				// Rises inside the word (cycle i -> i+1 is bit i -> bit i+1)
				// plus the branchless word-boundary term: a rise across the
				// boundary iff the previous word ended 0 and this one opens 1.
				r += int64(bits.OnesCount64(^v&(v>>1)&0x7fffffffffffffff)) + int64(^last&v&1)
				last = v >> 63
			}
			lastBit[s], rises[s] = last, r
		}
	}
	act := make([]float64, p.nSig)
	cycles := float64(words*64 - 1)
	for _, s := range p.stats {
		act[s] = float64(rises[s]) / cycles
	}
	return act, nil
}

// Eval runs the tape over caller-supplied PI words and returns the PO words,
// the compiled counterpart of EvalReference.
func (p *Program) Eval(piWords []uint64) ([]uint64, error) {
	if len(piWords) != p.nPI {
		return nil, fmt.Errorf("sim: Eval got %d PI words for %d PIs", len(piWords), p.nPI)
	}
	vals := make([]uint64, p.nSig*blockWords)
	for pi, w := range piWords {
		vals[pi*blockWords] = w
	}
	p.execBlock(vals, 1)
	out := make([]uint64, len(p.poSrc))
	for i, s := range p.poSrc {
		out[i] = vals[int(s)*blockWords]
	}
	return out, nil
}
