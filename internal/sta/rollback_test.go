package sta_test

// Round-trip tests for the engine's undo journal: random traces of every
// mutation the engine offers, under nested checkpoints, must roll back to
// the exact bits they started from, and the slack the engine derives on read
// must equal a fresh analysis's bit for bit throughout.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// gateState is what Rollback restores of one gate.
type gateState struct {
	cl   *cell.Cell
	volt cell.VoltLevel
	in   []netlist.Signal
	dead bool
}

// engineState fingerprints everything Rollback promises to restore: every
// gate's cell, rail, wiring and liveness, and the engine's arrival, required
// and load annotations and worst arrival, as float bits.
type engineState struct {
	gates                   []gateState
	arrival, required, load []uint64
	worst                   uint64
}

func floatBits(v []float64) []uint64 {
	b := make([]uint64, len(v))
	for i, x := range v {
		b[i] = math.Float64bits(x)
	}
	return b
}

func captureEngine(inc *sta.Incremental, ckt *netlist.Circuit) engineState {
	st := engineState{
		arrival:  floatBits(inc.Arrival),
		required: floatBits(inc.Required),
		load:     floatBits(inc.Load),
		worst:    math.Float64bits(inc.WorstArrival()),
	}
	for _, g := range ckt.Gates {
		st.gates = append(st.gates, gateState{cl: g.Cell, volt: g.Volt, in: slices.Clone(g.In), dead: g.Dead})
	}
	return st
}

// diff describes the first difference between two states, or returns "".
func (a engineState) diff(b engineState) string {
	if len(a.gates) != len(b.gates) {
		return fmt.Sprintf("%d gates vs %d", len(a.gates), len(b.gates))
	}
	for gi, x := range a.gates {
		y := b.gates[gi]
		if x.cl != y.cl || x.volt != y.volt || x.dead != y.dead || !slices.Equal(x.in, y.in) {
			return fmt.Sprintf("gate %d: %+v vs %+v", gi, x, y)
		}
	}
	for _, c := range []struct {
		what string
		x, y []uint64
	}{{"arrival", a.arrival, b.arrival}, {"required", a.required, b.required}, {"load", a.load, b.load}} {
		if len(c.x) != len(c.y) {
			return fmt.Sprintf("%d %s values vs %d", len(c.x), c.what, len(c.y))
		}
		for s := range c.x {
			if c.x[s] != c.y[s] {
				return fmt.Sprintf("%s of signal %d: %v vs %v", c.what, s,
					math.Float64frombits(c.x[s]), math.Float64frombits(c.y[s]))
			}
		}
	}
	if a.worst != b.worst {
		return fmt.Sprintf("worst arrival %v vs %v", math.Float64frombits(a.worst), math.Float64frombits(b.worst))
	}
	return ""
}

// requireFreshSlack holds every signal's Slack to a fresh Analyze's Slack
// bit for bit.
func requireFreshSlack(tb testing.TB, what string, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library) {
	tb.Helper()
	fresh, err := sta.Analyze(ckt, lib, inc.Tspec())
	if err != nil {
		tb.Fatal(err)
	}
	for s := range fresh.Required {
		got, want := inc.Slack(netlist.Signal(s)), fresh.Slack(netlist.Signal(s))
		if math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%s: Slack(%d) = %v, a fresh analysis gives %v", what, s, got, want)
		}
	}
}

// traceStep applies one random mutation through the engine and names it: a
// rail move, a resize, a converter inserted in front of a random subset of a
// gate's consumers (AddGate, then RewirePin onto it), one converter-fed pin
// rewired back to the converter's source, or a converter left without
// consumers killed. It returns "" when no attempt found a legal move.
func traceStep(tb testing.TB, rng *rand.Rand, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library) string {
	fan := inc.Fanouts()
	var lcs []int
	for gi, g := range ckt.Gates {
		if g.IsLC && !g.Dead {
			lcs = append(lcs, gi)
		}
	}
	for tries := 0; tries < 50; tries++ {
		op := rng.Intn(5)
		if op >= 3 {
			if len(lcs) == 0 {
				continue
			}
			lc := lcs[rng.Intn(len(lcs))]
			conns := fan.Conns[ckt.GateSignal(lc)]
			if op == 3 && len(conns) > 0 {
				cn := conns[rng.Intn(len(conns))]
				if err := inc.RewirePin(cn.Gate, cn.Pin, ckt.Gates[lc].In[0]); err != nil {
					tb.Fatal(err)
				}
				return "RewirePin"
			}
			if op == 4 && len(conns) == 0 {
				if err := inc.KillGate(lc); err != nil {
					tb.Fatal(err)
				}
				return "KillGate"
			}
			continue
		}
		gi := rng.Intn(len(ckt.Gates))
		g := ckt.Gates[gi]
		if g.Dead || g.IsLC {
			continue
		}
		switch op {
		case 0:
			v := cell.VoltLevel(rng.Intn(int(lib.Deepest()) + 1))
			if v == g.Volt {
				continue
			}
			inc.SetVolt(gi, v)
			return "SetVolt"
		case 1:
			cl := lib.Upsize(g.Cell)
			if rng.Intn(2) == 0 {
				cl = lib.Downsize(g.Cell)
			}
			if cl == nil {
				continue
			}
			inc.SetCell(gi, cl)
			return "SetCell"
		case 2:
			out := ckt.GateSignal(gi)
			conns := slices.Clone(fan.Conns[out])
			if len(conns) == 0 {
				continue
			}
			lcGi, lcSig := inc.AddGate(fmt.Sprintf("$lc_rt%d", len(ckt.Gates)), lib.LevelConverter(), out)
			ckt.Gates[lcGi].IsLC = true
			for _, cn := range conns {
				// A converter already on this net shares the new one's
				// priority, so it cannot be rewired onto it.
				if ckt.Gates[cn.Gate].IsLC || rng.Intn(2) == 0 {
					continue
				}
				if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
					tb.Fatal(err)
				}
			}
			return "AddGate"
		}
	}
	return ""
}

// TestUndoJournalRoundTrip drives interleaved SetVolt, SetCell, AddGate,
// RewirePin and KillGate traces under up to four nested checkpoints, rolls
// back partially to random open checkpoints, and commits once mid-trace.
// After every Rollback the circuit and the annotation must equal the
// checkpoint's snapshot bit for bit, every gate's timing record must equal
// one built fresh from its cell and rail (Check at zero tolerance), and
// Slack must equal a fresh analysis's after every Rollback and every tenth
// step.
func TestUndoJournalRoundTrip(t *testing.T) {
	for _, name := range []string{"z4ml", "b9", "C880", "alu2"} {
		for _, rails := range [][]float64{{5.0, 4.3}, {5.0, 4.3, 3.6}} {
			t.Run(fmt.Sprintf("%s/%drails", name, len(rails)), func(t *testing.T) {
				ckt, base, tspec := mapped(t, name)
				lib, err := base.AtRails(rails)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := sta.NewIncremental(ckt, lib, tspec)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(name))*7907 + int64(len(rails))))
				type checkpoint struct {
					mark  sta.Mark
					state engineState
				}
				var open []checkpoint
				rollBack := func(step, k int) {
					t.Helper()
					inc.Rollback(open[k].mark)
					if d := open[k].state.diff(captureEngine(inc, ckt)); d != "" {
						t.Fatalf("step %d: rollback to checkpoint %d of %d: %s", step, k+1, len(open), d)
					}
					if err := inc.Check(0); err != nil {
						t.Fatalf("step %d: rollback to checkpoint %d of %d: %v", step, k+1, len(open), err)
					}
					requireFreshSlack(t, fmt.Sprintf("step %d: after rollback", step), inc, ckt, lib)
				}
				steps := 240
				if testing.Short() {
					steps = 120
				}
				ops := map[string]int{}
				committed, rollbacks := false, 0
				for step := 0; step < steps; step++ {
					switch r := rng.Intn(10); {
					case r < 2 && len(open) < 4:
						open = append(open, checkpoint{inc.Checkpoint(), captureEngine(inc, ckt)})
					case r == 2 && len(open) > 0:
						// Roll back to a random open checkpoint, which stays
						// open; the ones inside it are gone.
						k := rng.Intn(len(open))
						rollBack(step, k)
						open = open[:k+1]
						rollbacks++
					case !committed && step >= steps/2:
						// Commit invalidates every earlier mark.
						inc.Commit()
						open = open[:0]
						committed = true
					default:
						ops[traceStep(t, rng, inc, ckt, lib)]++
					}
					if step%10 == 9 {
						requireFreshSlack(t, fmt.Sprintf("step %d", step), inc, ckt, lib)
					}
				}
				for k := len(open) - 1; k >= 0; k-- {
					rollBack(steps, k)
					rollbacks++
				}
				for _, op := range []string{"SetVolt", "SetCell", "AddGate", "RewirePin", "KillGate"} {
					if ops[op] == 0 {
						t.Errorf("trace never applied %s (ops %v)", op, ops)
					}
				}
				if rollbacks < 3 {
					t.Errorf("trace rolled back %d times, want at least 3", rollbacks)
				}
			})
		}
	}
}
