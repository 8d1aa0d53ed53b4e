package sta_test

// Completeness tests for the incremental engine's change journal
// (DrainChanged): everything Dscale's dirty-set machinery keys off it, so an
// omission silently desynchronises the candidate cache. The property tested
// is the documented superset contract — every signal whose annotation values,
// consumer set or driver attributes changed between two drains is drained.

import (
	"fmt"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// sigState fingerprints everything the journal promises to track for one
// signal: the four annotation values, the driver gate's attributes, and the
// consumer set.
type sigState struct {
	arrival, required, slack, load float64
	volt                           cell.VoltLevel
	cl                             *cell.Cell
	dead                           bool
	conns                          string
}

func captureState(inc *sta.Incremental, ckt *netlist.Circuit) []sigState {
	n := ckt.NumSignals()
	st := make([]sigState, n)
	fan := inc.Fanouts()
	for s := 0; s < n; s++ {
		st[s] = sigState{
			arrival:  inc.Arrival[s],
			required: inc.Required[s],
			slack:    inc.Slack(netlist.Signal(s)),
			load:     inc.Load[s],
			conns:    fmt.Sprint(fan.Conns[s]),
		}
		if g := ckt.GateOf(netlist.Signal(s)); g != nil {
			st[s].volt, st[s].cl, st[s].dead = g.Volt, g.Cell, g.Dead
		}
	}
	return st
}

// requireDrained checks that every signal whose state differs between before
// and after is present in the drained set. Extra drained signals are fine
// (the contract is a superset); missing ones are the bug.
func requireDrained(t *testing.T, what string, before, after []sigState, drained []netlist.Signal) {
	t.Helper()
	in := make(map[netlist.Signal]bool, len(drained))
	for _, s := range drained {
		in[s] = true
	}
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	for s := 0; s < n; s++ {
		if before[s] == after[s] || in[netlist.Signal(s)] {
			continue
		}
		t.Fatalf("%s: signal %d changed (%+v -> %+v) but was not drained",
			what, s, before[s], after[s])
	}
	// Signals appearing or disappearing (AddGate / rolled-back AddGate) must
	// be drained too when they exist afterwards.
	for s := n; s < len(after); s++ {
		if !in[netlist.Signal(s)] {
			t.Fatalf("%s: new signal %d was not drained", what, s)
		}
	}
}

func TestChangeJournalCompleteness(t *testing.T) {
	for _, name := range []string{"z4ml", "b9", "C880", "alu2"} {
		t.Run(name, func(t *testing.T) {
			ckt, lib, tspec := mapped(t, name)
			inc, err := sta.NewIncremental(ckt, lib, tspec)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name)) * 104729))
			var buf []netlist.Signal
			buf = inc.DrainChanged(buf[:0]) // clear any construction-time noise
			for step := 0; step < 40; step++ {
				before := captureState(inc, ckt)
				for i := 0; i <= rng.Intn(3); i++ {
					mutate(rng, inc, ckt, lib)
				}
				after := captureState(inc, ckt)
				buf = inc.DrainChanged(buf[:0])
				requireDrained(t, fmt.Sprintf("step %d", step), before, after, buf)
			}
		})
	}
}

// TestChangeJournalCoversStructuralOps drives the exact structural episode
// Dscale performs (lower + LC insertion + rewires, then bypass + kill) and a
// rollback across it, checking the journal after each phase.
func TestChangeJournalCoversStructuralOps(t *testing.T) {
	ckt, lib, tspec := mapped(t, "C880")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	fan := inc.Fanouts()
	var buf []netlist.Signal
	episodes := 0
	for gi := 0; gi < len(ckt.Gates) && episodes < 6; gi++ {
		g := ckt.Gates[gi]
		out := ckt.GateSignal(gi)
		if g.Dead || g.IsLC || len(fan.Conns[out]) == 0 {
			continue
		}
		episodes++
		buf = inc.DrainChanged(buf[:0])

		before := captureState(inc, ckt)
		mark := inc.Checkpoint()
		conns := append([]netlist.Conn(nil), fan.Conns[out]...)
		inc.SetVolt(gi, cell.VLow)
		lcGi, lcSig := inc.AddGate(fmt.Sprintf("$lc_j%d", gi), lib.LevelConverter(), out)
		ckt.Gates[lcGi].IsLC = true
		for _, cn := range conns {
			if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
				t.Fatal(err)
			}
		}
		after := captureState(inc, ckt)
		buf = inc.DrainChanged(buf[:0])
		requireDrained(t, "LC insertion", before, after, buf)

		before = after
		for _, cn := range conns {
			if err := inc.RewirePin(cn.Gate, cn.Pin, out); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.KillGate(lcGi); err != nil {
			t.Fatal(err)
		}
		after = captureState(inc, ckt)
		buf = inc.DrainChanged(buf[:0])
		requireDrained(t, "bypass and kill", before, after, buf)

		// Rollback restores the original state; the journal must still name
		// the signals whose values moved and moved back, because a consumer
		// may have observed the intermediate state.
		peak := after
		inc.Rollback(mark)
		after = captureState(inc, ckt)
		buf = inc.DrainChanged(buf[:0])
		requireDrained(t, "rollback (vs peak)", peak, after, buf)
	}
	if episodes == 0 {
		t.Fatal("no structural episodes exercised")
	}
}

// TestDrainChangedReusesBuffer pins the zero-allocation steady state the
// Dscale loop depends on.
func TestDrainChangedReusesBuffer(t *testing.T) {
	ckt, lib, tspec := mapped(t, "z4ml")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	var gis []int
	for gi, g := range ckt.Gates {
		if !g.Dead {
			gis = append(gis, gi)
		}
	}
	buf := make([]netlist.Signal, 0, 4*ckt.NumSignals())
	// Warm up journal/heap capacities.
	for _, gi := range gis {
		inc.SetVolt(gi, cell.VLow)
		inc.SetVolt(gi, cell.VHigh)
	}
	inc.Commit()
	buf = inc.DrainChanged(buf[:0])
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		gi := gis[i%len(gis)]
		i++
		inc.SetVolt(gi, cell.VLow)
		inc.SetVolt(gi, cell.VHigh)
		inc.Commit()
		buf = inc.DrainChanged(buf[:0])
	})
	if avg > 0.5 {
		t.Fatalf("steady-state mutate+drain allocates %.1f objects per run, want ~0", avg)
	}
}
