// Package sta is the static timing analyser the paper's procedures getSlkSet,
// getCPN, check_timing and update_timing are built on. It uses the pin-to-pin
// load-dependent delay model of the cell library (intrinsic + drive·Cload,
// derated for low-voltage instances) and computes arrival times, required
// times and slacks for every signal of a mapped circuit in O(n+e), as the
// paper's complexity analysis assumes.
package sta

import (
	"math"
	"sync/atomic"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// fullAnalyses and fullEvals are process-wide instrumentation: how many full
// Analyze passes ran and how many per-gate evaluations (forward + backward)
// they spent. The warm-vs-cold sweep benchmark reads them to quantify the
// analyses a shared baseline engine avoids; they have no functional effect.
var (
	fullAnalyses atomic.Int64
	fullEvals    atomic.Int64
)

// FullAnalyses returns the process-wide count of completed Analyze passes.
func FullAnalyses() int64 { return fullAnalyses.Load() }

// FullEvals returns the process-wide count of per-gate evaluations spent by
// full Analyze passes (two per live gate per pass: one forward, one backward).
func FullEvals() int64 { return fullEvals.Load() }

// Timing is a full timing annotation of a circuit at one point in time.
// Mutating the circuit invalidates it; call Analyze again (the paper's
// update_timing).
type Timing struct {
	// Tspec is the timing constraint applied at every primary output.
	Tspec float64
	// Arrival, Required and Slack are indexed by signal. Signals that reach
	// no PO have Required = +Inf.
	Arrival  []float64
	Required []float64
	Slack    []float64
	// Load is the capacitive load (pF) seen by each signal.
	Load []float64
	// WorstArrival is the latest PO arrival time.
	WorstArrival float64

	order []int
	fan   *netlist.Fanouts
}

// Loads computes the capacitive load of every signal: consumer input-pin
// capacitances, per-fanout wiring, and the PO pin load.
func Loads(c *netlist.Circuit, lib *cell.Library, fan *netlist.Fanouts) []float64 {
	load := make([]float64, c.NumSignals())
	for s := 0; s < c.NumSignals(); s++ {
		conns := fan.Conns[s]
		total := 0.0
		for _, cn := range conns {
			total += c.Gates[cn.Gate].Cell.InputCap[cn.Pin]
		}
		total += lib.WireCapPerFanout * float64(len(conns))
		for range fan.POs[s] {
			total += lib.POLoadCap
		}
		load[s] = total
	}
	return load
}

// Analyze runs a full forward/backward timing pass against constraint tspec.
func Analyze(c *netlist.Circuit, lib *cell.Library, tspec float64) (*Timing, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	fan := c.BuildFanouts()
	t := &Timing{
		Tspec:    tspec,
		Arrival:  make([]float64, c.NumSignals()),
		Required: make([]float64, c.NumSignals()),
		Slack:    make([]float64, c.NumSignals()),
		Load:     Loads(c, lib, fan),
		order:    order,
		fan:      fan,
	}
	// Forward: arrival times. PIs arrive at 0.
	for _, gi := range order {
		g := c.Gates[gi]
		out := c.GateSignal(gi)
		derate := lib.Derate(g.Volt)
		worst := 0.0
		for pin, s := range g.In {
			a := t.Arrival[s] + g.Cell.Delay(pin, t.Load[out], derate)
			if a > worst {
				worst = a
			}
		}
		t.Arrival[out] = worst
	}
	for _, po := range c.POs {
		if a := t.Arrival[po.Src]; a > t.WorstArrival {
			t.WorstArrival = a
		}
	}
	// Backward: required times.
	for s := range t.Required {
		t.Required[s] = math.Inf(1)
	}
	for _, po := range c.POs {
		if tspec < t.Required[po.Src] {
			t.Required[po.Src] = tspec
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		g := c.Gates[gi]
		out := c.GateSignal(gi)
		derate := lib.Derate(g.Volt)
		for pin, s := range g.In {
			r := t.Required[out] - g.Cell.Delay(pin, t.Load[out], derate)
			if r < t.Required[s] {
				t.Required[s] = r
			}
		}
	}
	for s := range t.Slack {
		t.Slack[s] = t.Required[s] - t.Arrival[s]
	}
	fullAnalyses.Add(1)
	fullEvals.Add(2 * int64(len(order)))
	return t, nil
}

// Meets reports whether every PO meets the constraint within eps.
func (t *Timing) Meets(eps float64) bool { return t.WorstArrival <= t.Tspec+eps }

// gateArrivalAt recomputes gate gi's output arrival from the given arrival
// and load annotations, as if the gate were bound to cell cl at the given
// derating with its output load shifted by dLoad. The incremental engine's
// propagation and its what-if primitives share it, so a prediction and the
// value a settled move produces agree bit for bit.
func gateArrivalAt(c *netlist.Circuit, arrival, load []float64, gi int, cl *cell.Cell, derate, dLoad float64) float64 {
	g := c.Gates[gi]
	out := c.GateSignal(gi)
	worst := 0.0
	for pin, s := range g.In {
		a := arrival[s] + cl.Delay(pin, load[out]+dLoad, derate)
		if a > worst {
			worst = a
		}
	}
	return worst
}

// MinDelay maps the circuit's intrinsic speed: the worst PO arrival with no
// constraint. The paper derives each benchmark's constraint as 1.2× this.
func MinDelay(c *netlist.Circuit, lib *cell.Library) (float64, error) {
	t, err := Analyze(c, lib, 0)
	if err != nil {
		return 0, err
	}
	return t.WorstArrival, nil
}
