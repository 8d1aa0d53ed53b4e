package sim

// Differential harness for the compiled simulation engine: on every bundled
// MCNC stand-in circuit and on fuzz-generated random circuits, the compiled
// tape (Program.Run / Program.Eval) must be bit-identical to the reference
// interpreter (RunReference / EvalReference). Equality is exact — integer
// rise counts and identical per-word formulas leave no room for float drift.

import (
	"fmt"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
)

// mappedCircuit maps one benchmark through the real flow, so the differential
// suite sees the exact gate mix the power estimates run on.
func mappedCircuit(tb testing.TB, name string) *netlist.Circuit {
	tb.Helper()
	net, err := mcnc.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := mapper.Map(net, lib, 1.2)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Circuit
}

// assertSameActivity compares two activity tables for exact equality.
func assertSameActivity(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d signals, reference %d", what, len(got), len(want))
	}
	for s := range want {
		if got[s] != want[s] {
			tb.Fatalf("%s: activity[%d] = %v, reference %v", what, s, got[s], want[s])
		}
	}
}

// TestCompiledMatchesReferenceOnSuite is the acceptance gate of the compiled
// engine: bit-identical activity tables on all 39 mapped MCNC stand-ins, at a
// word count that exercises partial blocks.
func TestCompiledMatchesReferenceOnSuite(t *testing.T) {
	names := mcnc.Names()
	if testing.Short() {
		names = names[:6]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ckt := mappedCircuit(t, name)
			const words, seed = 37, 11 // 2 full blocks + a partial one
			want, err := RunReference(ckt, words, seed)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Run(ctx, words, seed)
			if err != nil {
				t.Fatal(err)
			}
			assertSameActivity(t, "compiled", got, want)

			// Eval: exhaustive-style PI words derived from the PRNG.
			pi := make([]uint64, len(ckt.PIs))
			for i := range pi {
				pi[i] = piWord(seed, i, 0)
			}
			wantPO, err := EvalReference(ckt, pi)
			if err != nil {
				t.Fatal(err)
			}
			gotPO, err := p.Eval(pi)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPO {
				if gotPO[i] != wantPO[i] {
					t.Fatalf("Eval: PO %d = %x, reference %x", i, gotPO[i], wantPO[i])
				}
			}
		})
	}
}

// TestCompiledSkipsDeadGates mirrors TestRunSkipsDeadGates for the tape:
// dead gates are excluded from the instruction stream and keep zero
// activity.
func TestCompiledSkipsDeadGates(t *testing.T) {
	c := xorCircuit()
	gi, _ := c.AddGate("dead", lib.Smallest(cell.FINV), 0)
	c.Gates[gi].Dead = true
	want, err := RunReference(c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ctx, c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameActivity(t, "dead-gate circuit", got, want)
	if got[c.GateSignal(gi)] != 0 {
		t.Fatal("dead gate accumulated activity in compiled run")
	}
}

// TestCompiledSingleWord covers runs of one word (no boundary transitions
// beyond in-word ones) and runs around one block: a partial block, a full
// one, and one word into the next.
func TestCompiledSingleWord(t *testing.T) {
	ckt := mappedCircuit(t, "z4ml")
	p, err := Compile(ckt)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{1, 2, blockWords, blockWords + 1} {
		want, err := RunReference(ckt, words, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(ctx, words, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertSameActivity(t, fmt.Sprintf("words=%d", words), got, want)
	}
}

// fuzzFuncs is the drawable function set for random circuits: every
// library-backed function.
var fuzzFuncs = []cell.Func{
	cell.FINV, cell.FBUF, cell.FNAND2, cell.FNAND3, cell.FNAND4,
	cell.FNOR2, cell.FNOR3, cell.FNOR4, cell.FAND2, cell.FAND3, cell.FAND4,
	cell.FOR2, cell.FOR3, cell.FOR4, cell.FXOR2, cell.FXOR3, cell.FXNOR2,
	cell.FAOI21, cell.FAOI22, cell.FAOI211, cell.FOAI21, cell.FOAI22,
	cell.FOAI211, cell.FAO21, cell.FAO22, cell.FOA21, cell.FOA22,
	cell.FMUX21, cell.FMAJ3,
}

// fuzzCircuit decodes a byte stream into a random DAG: each pair of bytes
// adds one gate of a random function whose fanins are drawn from the signals
// built so far. The final signal becomes a PO so nothing is trivially dead.
func fuzzCircuit(data []byte) *netlist.Circuit {
	c := netlist.New("fuzz")
	nPI := 2 + int(len(data)%6)
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	sigs := netlist.Signal(nPI)
	for i := 0; i+1 < len(data); i += 2 {
		fn := fuzzFuncs[int(data[i])%len(fuzzFuncs)]
		cl := lib.Smallest(fn)
		if cl == nil {
			continue
		}
		in := make([]netlist.Signal, fn.NumInputs())
		for j := range in {
			in[j] = netlist.Signal((int(data[i+1]) + j*7 + i) % int(sigs))
		}
		_, out := c.AddGate(fmt.Sprintf("g%d", i/2), cl, in...)
		sigs = out + 1
	}
	if int(sigs) > nPI {
		c.AddPO("o", sigs-1)
	} else {
		c.AddPO("o", 0)
	}
	return c
}

// FuzzSimDifferential feeds random circuits, seeds and word counts through
// both engines and requires exact agreement.
func FuzzSimDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(1), uint8(4))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x11, 0x22}, uint64(42), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 28, 3, 17, 200, 5, 5, 5, 5}, uint64(7), uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, wordsByte uint8) {
		ckt := fuzzCircuit(data)
		words := 1 + int(wordsByte)%40
		want, err := RunReference(ckt, words, seed)
		if err != nil {
			t.Skip() // cyclic or invalid circuits reject identically below
		}
		p, err := Compile(ckt)
		if err != nil {
			t.Fatalf("reference accepted circuit, Compile rejected: %v", err)
		}
		got, err := p.Run(ctx, words, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertSameActivity(t, "compiled", got, want)
		pi := make([]uint64, len(ckt.PIs))
		for i := range pi {
			pi[i] = piWord(seed, i, 1)
		}
		wantPO, err := EvalReference(ckt, pi)
		if err != nil {
			t.Fatal(err)
		}
		gotPO, err := p.Eval(pi)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPO {
			if gotPO[i] != wantPO[i] {
				t.Fatalf("Eval PO %d: %x vs %x", i, gotPO[i], wantPO[i])
			}
		}
	})
}

// BenchmarkProgramRun gives an in-package speed signal on a mapped circuit;
// the des-class numbers live in the root BenchmarkSim.
func BenchmarkProgramRun(b *testing.B) {
	ckt := mappedCircuit(b, "alu2")
	const words, seed = 256, 1
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunReference(ckt, words, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	p, err := Compile(ckt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(ctx, words, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}
