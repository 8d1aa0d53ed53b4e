package sta_test

// Completeness tests for the journal's change report (ChangedSince):
// everything Dscale's dirty-set machinery keys off it, so an omission
// silently desynchronises the candidate cache. The property tested is the
// documented superset contract — every signal whose annotation values,
// consumer set or driver attributes changed since a mark is named.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// sigState fingerprints everything the journal promises to track for one
// signal: the four annotation values, the driver gate's attributes, and the
// consumer set with each consumer's rail (a consumer's rail decides whether
// the driver would need a level converter, even when no timing value moves).
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
		var conns strings.Builder
		for _, cn := range fan.Conns[s] {
			fmt.Fprintf(&conns, "%d.%d@%v ", cn.Gate, cn.Pin, ckt.Gates[cn.Gate].Volt)
		}
		st[s] = sigState{
			arrival:  inc.Arrival[s],
			required: inc.Required[s],
			slack:    inc.Slack(netlist.Signal(s)),
			load:     inc.Load[s],
			conns:    conns.String(),
		}
		if g := ckt.GateOf(netlist.Signal(s)); g != nil {
			st[s].volt, st[s].cl, st[s].dead = g.Volt, g.Cell, g.Dead
		}
	}
	return st
}

// requireNamed checks that every signal whose state differs between before
// and after is present in the named set. Extra named signals are fine (the
// contract is a superset); missing ones are the bug.
func requireNamed(t *testing.T, what string, before, after []sigState, named []netlist.Signal) {
	t.Helper()
	in := make(map[netlist.Signal]bool, len(named))
	for _, s := range named {
		in[s] = true
	}
	n := min(len(before), len(after))
	for s := 0; s < n; s++ {
		if before[s] == after[s] || in[netlist.Signal(s)] {
			continue
		}
		t.Fatalf("%s: signal %d changed (%+v -> %+v) but was not named",
			what, s, before[s], after[s])
	}
	// Signals that appeared (AddGate) must be named too.
	for s := n; s < len(after); s++ {
		if !in[netlist.Signal(s)] {
			t.Fatalf("%s: new signal %d was not named", what, s)
		}
	}
}

// TestChangeJournalCompleteness reads ChangedSince after random mutation
// bursts. The journal is committed only every tenth step, so most reads
// start mid-journal, as Dscale's do under KeepJournal.
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
			for step := 0; step < 40; step++ {
				m := inc.Checkpoint()
				before := captureState(inc, ckt)
				for i := 0; i <= rng.Intn(3); i++ {
					mutate(rng, inc, ckt, lib)
				}
				after := captureState(inc, ckt)
				buf = inc.ChangedSince(m, buf[:0])
				requireNamed(t, fmt.Sprintf("step %d", step), before, after, buf)
				if step%10 == 9 {
					inc.Commit()
				}
			}
		})
	}
}

// dscaleEpisode performs the structural part of a Dscale move at one gate:
// it lowers the gate, inserts a converter and rewires the gate's consumers
// onto it. It returns the consumers it moved and the converter.
func dscaleEpisode(t *testing.T, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, gi int) ([]netlist.Conn, int) {
	t.Helper()
	out := ckt.GateSignal(gi)
	conns := append([]netlist.Conn(nil), inc.Fanouts().Conns[out]...)
	inc.SetVolt(gi, cell.VLow)
	lcGi, lcSig := inc.AddGate(fmt.Sprintf("$lc_j%d", gi), lib.LevelConverter(), out)
	ckt.Gates[lcGi].IsLC = true
	for _, cn := range conns {
		if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
			t.Fatal(err)
		}
	}
	return conns, lcGi
}

// dscaleBypass undoes an episode's rewires through the engine and kills its
// converter, as Dscale's converter bypass does.
func dscaleBypass(t *testing.T, inc *sta.Incremental, ckt *netlist.Circuit, gi int, conns []netlist.Conn, lcGi int) {
	t.Helper()
	for _, cn := range conns {
		if err := inc.RewirePin(cn.Gate, cn.Pin, ckt.GateSignal(gi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.KillGate(lcGi); err != nil {
		t.Fatal(err)
	}
}

// episodeGates returns up to n live, non-converter gates with consumers.
func episodeGates(inc *sta.Incremental, ckt *netlist.Circuit, n int) []int {
	var gis []int
	for gi, g := range ckt.Gates {
		if len(gis) == n {
			break
		}
		if !g.Dead && !g.IsLC && inc.Fanouts().Degree(ckt.GateSignal(gi)) > 0 {
			gis = append(gis, gi)
		}
	}
	return gis
}

// TestChangeJournalCoversStructuralOps drives the exact structural episode
// Dscale performs (lower + LC insertion + rewires, then bypass + kill),
// checking what ChangedSince names after each phase, and rolls the episode
// back before the next.
func TestChangeJournalCoversStructuralOps(t *testing.T) {
	ckt, lib, tspec := mapped(t, "C880")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	gis := episodeGates(inc, ckt, 6)
	if len(gis) == 0 {
		t.Fatal("no structural episodes exercised")
	}
	var buf []netlist.Signal
	for _, gi := range gis {
		mark := inc.Checkpoint()
		start := captureState(inc, ckt)
		conns, lcGi := dscaleEpisode(t, inc, ckt, lib, gi)
		mid := captureState(inc, ckt)
		buf = inc.ChangedSince(mark, buf[:0])
		requireNamed(t, "LC insertion", start, mid, buf)

		m := inc.Checkpoint()
		dscaleBypass(t, inc, ckt, gi, conns, lcGi)
		end := captureState(inc, ckt)
		buf = inc.ChangedSince(m, buf[:0])
		requireNamed(t, "bypass and kill", mid, end, buf)

		// The whole episode read from its first mark names both phases.
		buf = inc.ChangedSince(mark, buf[:0])
		requireNamed(t, "whole episode", start, end, buf)
		inc.Rollback(mark)
	}
}

// TestOrderSurvivesStructuralRollback rolls Dscale-shaped episodes (a
// supply lowering, a converter insertion, rewires, a bypass and a kill) back
// to their mark, on top of earlier unstructural moves as a warm run has
// them. Order must stay the construction order, which must equal a fresh
// topological order of the rolled-back circuit: Order never rebuilds, so
// this is what lets every caller read it.
func TestOrderSurvivesStructuralRollback(t *testing.T) {
	ckt, lib, tspec := mapped(t, "C880")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(inc.Order())
	base := inc.Checkpoint()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		mutate(rng, inc, ckt, lib)
	}
	gis := episodeGates(inc, ckt, 6)
	if len(gis) < 2 {
		t.Fatal("too few structural episodes")
	}
	for i, gi := range gis {
		mark := inc.Checkpoint()
		conns, lcGi := dscaleEpisode(t, inc, ckt, lib, gi)
		if i%2 == 0 {
			dscaleBypass(t, inc, ckt, gi, conns, lcGi)
		}
		inc.Rollback(mark)
		topo, err := ckt.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Order(); !slices.Equal(got, want) || !slices.Equal(topo, want) {
			t.Fatalf("episode at gate %d: Order() %v, TopoOrder %v, construction order %v", gi, got, topo, want)
		}
		assertMatches(t, inc, fmt.Sprintf("after rolling back the episode at gate %d", gi))
	}
	inc.Rollback(base)
	if got := inc.Order(); !slices.Equal(got, want) {
		t.Fatalf("after the base rollback: Order() %v, construction order %v", got, want)
	}
}

// TestChangedSinceReusesBuffer pins the zero-allocation steady state the
// Dscale loop depends on.
func TestChangedSinceReusesBuffer(t *testing.T) {
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
	var buf []netlist.Signal
	step := func(gi int) {
		m := inc.Checkpoint()
		inc.SetVolt(gi, cell.VLow)
		inc.SetVolt(gi, cell.VHigh)
		buf = inc.ChangedSince(m, buf[:0])
		inc.Commit()
	}
	// Warm up the journal, heap and buffer capacities.
	for _, gi := range gis {
		step(gi)
	}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		step(gis[i%len(gis)])
		i++
	})
	if avg > 0.5 {
		t.Fatalf("steady-state mutate+read allocates %.1f objects per run, want ~0", avg)
	}
}
