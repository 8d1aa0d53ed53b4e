package sta

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// randomMapped builds a random circuit of library cells: pis primary inputs
// and n gates of one to four pins, each pin fed by one of the 30 signals
// before its gate, with a primary output on every gate output no gate reads.
// The last gate is left dead and unread.
func randomMapped(rng *rand.Rand, pis, n int) *netlist.Circuit {
	funcs := []cell.Func{cell.FINV, cell.FNAND2, cell.FNOR2, cell.FNAND3, cell.FAOI21, cell.FAOI22, cell.FAOI211, cell.FXOR2}
	c := netlist.New("random")
	for i := range pis {
		c.AddPI(fmt.Sprintf("i%d", i))
	}
	read := make(map[netlist.Signal]bool)
	for i := range n {
		cells := lib.CellsOf(funcs[rng.Intn(len(funcs))])
		cl := cells[rng.Intn(len(cells))]
		in := make([]netlist.Signal, cl.NumInputs())
		for p := range in {
			in[p] = netlist.Signal(max(0, c.NumSignals()-1-rng.Intn(30)))
			if i < n-1 {
				read[in[p]] = true
			}
		}
		c.AddGate(fmt.Sprintf("g%d", i), cl, in...)
	}
	for gi := range n - 1 {
		if s := c.GateSignal(gi); !read[s] {
			c.AddPO(fmt.Sprintf("o%d", gi), s)
		}
	}
	c.Gates[n-1].Dead = true
	return c
}

// TestWaveOrder drives the engine's two waves as priority queues over a
// random mapped circuit with level converters inserted by AddGate (two of
// them on one driver, so they share a fractional priority) and one gate dead
// at construction: random pushes of original and inserted gates, repeats
// included, before the first pop and between pops, landing on both sides of
// the bitset's cursor. Pops come in drains, each up to a limit: a full drain,
// or one up to a random priority (an original gate's, an inserted gate's, or
// one between them), as SettleAt drains. Every pop must be a queued gate of
// least sign·prio by a brute-force scan of the queued set, within the limit,
// and a drain must return −1 exactly when no queued gate lies within it. Each
// queued gate must pop exactly once, and a drained wave must have no bit and
// no queued mark set and its cursor back at the start.
func TestWaveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n = 300
	ckt := randomMapped(rng, 16, n)
	inc, err := NewIncremental(ckt, lib, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lc := lib.LevelConverter()
	var inserted []int
	add := func(src netlist.Signal) netlist.Signal {
		gi, out := inc.AddGate(fmt.Sprintf("$lc%d", len(inserted)), lc, src)
		inserted = append(inserted, gi)
		return out
	}
	add(ckt.GateSignal(100))
	add(ckt.GateSignal(100))
	add(add(ckt.GateSignal(200))) // chained: a priority between two fractional ones
	add(netlist.Signal(3))        // a PI's: below every original gate's
	add(ckt.GateSignal(5))
	if p := inc.prio; p[inserted[0]] != p[inserted[1]] || p[inserted[0]] == float64(int(p[inserted[0]])) {
		t.Fatalf("converters on one driver have priorities %g and %g, want one fractional priority",
			p[inserted[0]], p[inserted[1]])
	}
	if inc.prio[n-1] != -1 {
		t.Fatalf("dead gate has priority %g, want -1", inc.prio[n-1])
	}
	pick := func() int {
		switch r := rng.Intn(8); {
		case r < 2:
			return inserted[rng.Intn(len(inserted))]
		case r == 2:
			return n - 1
		default:
			return rng.Intn(n - 1)
		}
	}
	for _, w := range []struct {
		name string
		q    *wave
	}{{"forward", &inc.fwd}, {"backward", &inc.bwd}} {
		var before, beyond, heapPops, cutShort int
		for trial := 0; trial < 300; trial++ {
			queued := make(map[int]bool)
			push := func() {
				g := pick()
				if p := inc.prio[g]; p >= 0 && p == float64(int(p)) && !queued[g] {
					k := int(p)
					if w.q.sign*float64(k) < w.q.sign*float64(w.q.cur) {
						before++
					} else {
						beyond++
					}
				}
				w.q.push(g, inc.prio)
				queued[g] = true
			}
			for range 1 + rng.Intn(40) {
				push()
			}
			for len(queued) > 0 {
				limit := w.q.sign * math.Inf(1)
				switch rng.Intn(4) {
				case 0:
					limit = inc.prio[pick()]
				case 1:
					limit = float64(rng.Intn(n)) + 0.5*float64(rng.Intn(2)) - 1
				}
				for {
					least, within := 0.0, false
					for g := range queued {
						if k := w.q.sign * inc.prio[g]; k <= w.q.sign*limit && (!within || k < least) {
							least, within = k, true
						}
					}
					gi := w.q.pop(limit, inc.prio)
					if gi < 0 {
						if within {
							t.Fatalf("%s trial %d: drain to %g ended with a gate of key %g queued", w.name, trial, limit, least)
						}
						if len(queued) > 0 {
							cutShort++
						}
						break
					}
					if !queued[gi] {
						t.Fatalf("%s trial %d: popped gate %d, not queued or popped twice", w.name, trial, gi)
					}
					if !within {
						t.Fatalf("%s trial %d: drain to %g popped gate %d of priority %g", w.name, trial, limit, gi, inc.prio[gi])
					}
					if k := w.q.sign * inc.prio[gi]; k != least {
						t.Fatalf("%s trial %d: popped gate %d of key %g, a queued gate has key %g", w.name, trial, gi, k, least)
					}
					if inc.prio[gi] != float64(int(inc.prio[gi])) || inc.prio[gi] < 0 {
						heapPops++
					}
					delete(queued, gi)
					if rng.Intn(3) == 0 {
						for range 1 + rng.Intn(4) {
							push()
						}
					}
				}
			}
			if gi := w.q.pop(w.q.sign*math.Inf(1), inc.prio); gi >= 0 {
				t.Fatalf("%s trial %d: popped gate %d from a drained wave", w.name, trial, gi)
			}
			for i, word := range w.q.bits {
				if word != 0 {
					t.Fatalf("%s trial %d: drained wave still has position %d queued", w.name, trial, i*64+bits.TrailingZeros64(word))
				}
			}
			for gi, in := range w.q.in {
				if in {
					t.Fatalf("%s trial %d: drained wave still marks gate %d queued", w.name, trial, gi)
				}
			}
			if w.q.cur != w.q.start() {
				t.Fatalf("%s trial %d: drained wave's cursor at %d, want the start %d", w.name, trial, w.q.cur, w.q.start())
			}
		}
		if before == 0 || beyond == 0 || heapPops == 0 || cutShort == 0 {
			t.Fatalf("%s: %d pushes before the cursor, %d at or beyond it, %d heap pops, %d drains cut short by their limit; want each",
				w.name, before, beyond, heapPops, cutShort)
		}
	}
}
