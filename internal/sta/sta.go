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
	// Arrival and Required are indexed by signal. Signals that reach no PO
	// have Required = +Inf.
	Arrival  []float64
	Required []float64
	// Load is the capacitive load (pF) seen by each signal.
	Load []float64
	// WorstArrival is the latest PO arrival time.
	WorstArrival float64

	order []int
	fan   *netlist.Fanouts
	recs  []gateTiming
}

// Slack returns signal s's slack, Required[s] - Arrival[s].
func (t *Timing) Slack(s netlist.Signal) float64 { return t.Required[s] - t.Arrival[s] }

// Loads computes the capacitive load of every signal: consumer input-pin
// capacitances, per-fanout wiring, and the PO pin load.
func Loads(c *netlist.Circuit, lib *cell.Library, fan *netlist.Fanouts) []float64 {
	load := make([]float64, c.NumSignals())
	for s := range load {
		load[s] = signalLoad(c, lib, fan, netlist.Signal(s))
	}
	return load
}

// Analyze runs a full forward/backward timing pass against constraint tspec.
// It is the from-scratch reference the incremental engine is held to: it
// computes every value once, arrivals in topological order and required
// times in reverse, with the kernels the engine re-evaluates (signalLoad,
// gateArrivalAt and requiredAt) over the same per-gate timing records, so
// both produce the same bits.
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
		Load:     Loads(c, lib, fan),
		order:    order,
		fan:      fan,
		recs:     make([]gateTiming, len(c.Gates)),
	}
	for gi, g := range c.Gates {
		t.recs[gi] = timingOf(g.Cell, lib.Derate(g.Volt))
	}
	// Forward: arrival times. PIs arrive at 0.
	for _, gi := range order {
		out := c.GateSignal(gi)
		t.Arrival[out] = gateArrivalAt(c, t.Arrival, gi, &t.recs[gi], t.Load[out])
	}
	for _, po := range c.POs {
		if a := t.Arrival[po.Src]; a > t.WorstArrival {
			t.WorstArrival = a
		}
	}
	// Backward: required times in reverse topological order, so a gate
	// output's consumers are settled before it is, and the PIs last. A dead
	// gate's output keeps +Inf.
	for s := range t.Required {
		t.Required[s] = math.Inf(1)
	}
	for i := len(order) - 1; i >= 0; i-- {
		out := c.GateSignal(order[i])
		t.Required[out] = requiredAt(c, t.recs, fan, t.Required, t.Load, tspec, out)
	}
	for s := range c.NumPIs() {
		t.Required[s] = requiredAt(c, t.recs, fan, t.Required, t.Load, tspec, netlist.Signal(s))
	}
	fullAnalyses.Add(1)
	fullEvals.Add(2 * int64(len(order)))
	return t, nil
}

// Meets reports whether every PO meets the constraint within eps.
func (t *Timing) Meets(eps float64) bool { return t.WorstArrival <= t.Tspec+eps }

// signalLoad is signal s's capacitive load under consumer table fan: its
// consumers' input-pin capacitances in table order, then the per-fanout
// wiring, then one PO pin load per primary output.
func signalLoad(c *netlist.Circuit, lib *cell.Library, fan *netlist.Fanouts, s netlist.Signal) float64 {
	conns := fan.Conns[s]
	total := 0.0
	for _, cn := range conns {
		total += c.Gates[cn.Gate].Cell.InputCap[cn.Pin]
	}
	total += float64(lib.WireCapPerFanout * float64(len(conns)))
	for range fan.POs[s] {
		total += lib.POLoadCap
	}
	return total
}

// gateTiming is the per-gate record the delay kernels read: the bound cell's
// per-pin intrinsic delays and drive, and the derate of the gate's rail,
// copied bit for bit from the cell and the library. delay computes
// Cell.Delay's (Intrinsic[pin] + Drive*load) * derate operand for operand,
// with the same explicit roundings, so a kernel reading the record produces
// the bits the cell would, without chasing the gate, its cell and the rail
// table on every arc.
type gateTiming struct {
	intrinsic     [cell.MaxInputs]float64
	drive, derate float64
}

// timingOf is the record of a gate bound to cl on a rail of the given derate.
func timingOf(cl *cell.Cell, derate float64) gateTiming {
	r := gateTiming{drive: cl.Drive, derate: derate}
	copy(r.intrinsic[:], cl.Intrinsic)
	return r
}

// delay is the pin-to-pin delay for an output load: Cell.Delay on the
// record's operands. The conversions round the product and the result, so
// no compiler fuses them into a multiply-add, here or where the caller adds
// the delay to an arrival.
func (r *gateTiming) delay(pin int, load float64) float64 {
	return float64((r.intrinsic[pin] + float64(r.drive*load)) * r.derate)
}

// gateArrivalAt recomputes gate gi's output arrival from the given arrival
// annotation, as if the gate had timing record rec and output load load.
// Analyze, the incremental engine's propagation and its what-if reads share
// it, so a prediction and the value a settled move produces agree bit for
// bit.
func gateArrivalAt(c *netlist.Circuit, arrival []float64, gi int, rec *gateTiming, load float64) float64 {
	worst := 0.0
	for pin, s := range c.Gates[gi].In {
		if a := arrival[s] + rec.delay(pin, load); a > worst {
			worst = a
		}
	}
	return worst
}

// requiredAt is signal s's required time from its consumers' required times,
// loads and timing records: tspec where s feeds a PO (else +Inf), lowered by
// each consumer pin's required time less that pin's delay.
func requiredAt(c *netlist.Circuit, recs []gateTiming, fan *netlist.Fanouts, required, load []float64,
	tspec float64, s netlist.Signal) float64 {
	r := math.Inf(1)
	if fan.POs[s] > 0 {
		r = tspec
	}
	for _, cn := range fan.Conns[s] {
		out := c.GateSignal(cn.Gate)
		if v := required[out] - recs[cn.Gate].delay(cn.Pin, load[out]); v < r {
			r = v
		}
	}
	return r
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
