package sta_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// TestSweepDifferentialAllCircuits holds a sweeping engine to an eager twin
// on every suite circuit at two and three rails. Both apply the same random
// moves in reverse construction order, the sweeping one between BeginSweep
// and EndSweep: SetCell to another size of the gate's function, or SetVolt to
// a random rail, with an occasional Commit. Before about half of the gates
// the sweeping engine calls SettleAt, and every value SettleAt promises must
// then equal the twin's under math.Float64bits: the arrivals of the gate and
// of every gate before it, the required time and slack of the gate's output,
// PinArrival for every pin, and ArrivalWith for every size of the gate's
// function at its rail and the next, at the live load and a shifted one (CVS's
// check_timing is ArrivalWith at the next rail and the live load). The twin's
// reads must also agree with the annotation they predict: each PinArrival is
// the driver's arrival plus Cell.Delay at the gate's cell, rail and load, the
// greatest of them (or 0) is the gate's arrival, and ArrivalWith at the live
// cell, rail and load is that arrival too. After EndSweep, Check(0) must pass.
// Each circuit runs two sweeps, moving about a third and then two thirds of
// the gates.
func TestSweepDifferentialAllCircuits(t *testing.T) {
	for _, name := range circuitsUnderTest(t) {
		for _, rails := range [][]float64{{5.0, 4.3}, {5.0, 4.3, 3.6}} {
			t.Run(fmt.Sprintf("%s/%drails", name, len(rails)), func(t *testing.T) {
				t.Parallel()
				ckt, base, tspec := mapped(t, name)
				lib, err := base.AtRails(rails)
				if err != nil {
					t.Fatal(err)
				}
				twin := ckt.Clone()
				sw, err := sta.NewIncremental(ckt, lib, tspec)
				if err != nil {
					t.Fatal(err)
				}
				eager, err := sta.NewIncremental(twin, lib, tspec)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(name))*7919 + int64(len(rails))))
				bits := math.Float64bits
				order := sw.Order()
				settles, moves := 0, 0
				for sweep, odds := range []float64{1.0 / 3, 2.0 / 3} {
					sw.BeginSweep()
					for i := len(order) - 1; i >= 0; i-- {
						gi := order[i]
						g := ckt.Gates[gi]
						if rng.Intn(2) == 0 {
							sw.SettleAt(gi)
							settles++
							for _, gj := range order[:i+1] {
								s := ckt.GateSignal(gj)
								if bits(sw.Arrival[s]) != bits(eager.Arrival[s]) {
									t.Fatalf("sweep %d at %s: arrival of %s is %v, eager %v",
										sweep, g.Name, ckt.Gates[gj].Name, sw.Arrival[s], eager.Arrival[s])
								}
							}
							out := ckt.GateSignal(gi)
							if bits(sw.Required[out]) != bits(eager.Required[out]) || bits(sw.Slack(out)) != bits(eager.Slack(out)) {
								t.Fatalf("sweep %d at %s: required %v and slack %v, eager %v and %v",
									sweep, g.Name, sw.Required[out], sw.Slack(out), eager.Required[out], eager.Slack(out))
							}
							worst := 0.0
							for pin, s := range g.In {
								a, b := sw.PinArrival(gi, pin), eager.PinArrival(gi, pin)
								if bits(a) != bits(b) {
									t.Fatalf("sweep %d at %s: pin %d arrival %v, eager %v", sweep, g.Name, pin, a, b)
								}
								if want := eager.Arrival[s] + g.Cell.Delay(pin, eager.Load[out], lib.Derate(g.Volt)); bits(b) != bits(want) {
									t.Fatalf("sweep %d at %s: eager pin %d arrival %v, driver plus Cell.Delay %v", sweep, g.Name, pin, b, want)
								}
								worst = max(worst, b)
							}
							if bits(worst) != bits(eager.Arrival[out]) {
								t.Fatalf("sweep %d at %s: latest pin arrival %v, eager arrival %v", sweep, g.Name, worst, eager.Arrival[out])
							}
							rails := []cell.VoltLevel{g.Volt}
							if g.Volt < lib.Deepest() {
								rails = append(rails, g.Volt+1)
							}
							for _, v := range rails {
								for _, cl := range lib.CellsOf(g.Cell.Function) {
									for _, dLoad := range []float64{0, 0.002} {
										a := sw.ArrivalWith(gi, cl, v, sw.Load[out]+dLoad)
										b := eager.ArrivalWith(gi, cl, v, eager.Load[out]+dLoad)
										if bits(a) != bits(b) {
											t.Fatalf("sweep %d at %s: arrival with %s at %s and load shift %g is %v, eager %v",
												sweep, g.Name, cl.Name, v, dLoad, a, b)
										}
									}
								}
							}
							live := eager.ArrivalWith(gi, g.Cell, g.Volt, eager.Load[out])
							if bits(live) != bits(eager.Arrival[out]) {
								t.Fatalf("sweep %d at %s: arrival with the live cell, rail and load %v, eager arrival %v",
									sweep, g.Name, live, eager.Arrival[out])
							}
						}
						if rng.Float64() >= odds {
							continue
						}
						moves++
						if cells := lib.CellsOf(g.Cell.Function); rng.Intn(2) == 0 && len(cells) > 1 {
							cl := cells[rng.Intn(len(cells))]
							sw.SetCell(gi, cl)
							eager.SetCell(gi, cl)
						} else {
							v := cell.VoltLevel(rng.Intn(len(rails)))
							sw.SetVolt(gi, v)
							eager.SetVolt(gi, v)
						}
						if rng.Intn(8) == 0 {
							sw.Commit()
							eager.Commit()
						}
					}
					sw.EndSweep()
					if err := sw.Check(0); err != nil {
						t.Fatalf("after sweep %d: %v", sweep, err)
					}
				}
				if settles == 0 || moves == 0 {
					t.Fatalf("%d settles and %d moves; want both", settles, moves)
				}
			})
		}
	}
}

// TestSweepGuards holds each engine method that needs settled waves to a
// panic inside a sweep, before it changes anything: after each panic and
// EndSweep, the circuit keeps its gates and the engine passes Check(0).
func TestSweepGuards(t *testing.T) {
	ckt, lib, tspec := mapped(t, "z4ml")
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	gi := inc.Order()[0] // its pins read primary inputs only
	to := netlist.Signal(0)
	if ckt.Gates[gi].In[0] == to {
		to = 1
	}
	gates := len(ckt.Gates)
	for _, op := range []struct {
		name string
		call func()
	}{
		{"Checkpoint", func() { inc.Checkpoint() }},
		{"Rollback", func() { inc.Rollback(0) }},
		{"RewirePin", func() { _ = inc.RewirePin(gi, 0, to) }},
		{"AddGate", func() { inc.AddGate("$lc", lib.LevelConverter(), ckt.GateSignal(gi)) }},
		{"KillGate", func() { _ = inc.KillGate(gi) }},
		{"SetLibrary", func() { _ = inc.SetLibrary(lib) }},
	} {
		inc.BeginSweep()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s inside a sweep did not panic", op.name)
				}
			}()
			op.call()
		}()
		inc.EndSweep()
		if len(ckt.Gates) != gates {
			t.Fatalf("%s inside a sweep left %d gates, want %d", op.name, len(ckt.Gates), gates)
		}
		if err := inc.Check(0); err != nil {
			t.Fatalf("after %s inside a sweep: %v", op.name, err)
		}
	}
}
