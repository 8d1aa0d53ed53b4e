package sta

import (
	"fmt"
	"math"
	"math/bits"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// Incremental is a stateful timing analysis that stays consistent across
// single-gate mutations without recomputing the whole circuit. After a
// voltage, cell, wiring or structural change it re-propagates arrival times
// event-driven through the affected fanout cone and required times through
// the affected fanin cone, processing each gate at most once per wave in
// topological priority order.
//
// Every value is re-evaluated with the kernels Analyze computes it with
// (signalLoad, gateArrivalAt, requiredAt), over per-gate timing records the
// engine refreshes wherever a gate's cell or rail changes, so the
// incremental annotation is bit-identical to a fresh full analysis at every
// settled point — Analyze stays the reference oracle (see Check), and
// algorithms driven by either produce identical decisions. Slack is not
// stored: Slack derives it on read with Timing.Slack's subtraction.
//
// All circuit mutations must go through the engine (SetVolt, SetCell,
// RewirePin, AddGate, KillGate); mutating the circuit directly invalidates
// it. Checkpoint/Rollback give transactional apply/undo: candidate moves can
// be applied, measured, and reverted in time proportional to the touched
// cone, never the circuit. The same undo journal tells incremental consumers
// what changed: ChangedSince names the signals its records since a mark
// touch. The journal holds no pointers, so the garbage collector never scans
// it.
//
// A reverse sweep (BeginSweep … EndSweep) defers the waves for a caller that
// visits gates in decreasing priority, as area recovery does: SetCell and
// SetVolt only queue them, and SettleAt settles just what one gate's reads
// depend on.
type Incremental struct {
	ckt   *netlist.Circuit
	lib   *cell.Library
	tspec float64

	// Arrival, Required and Load are live annotations indexed by signal,
	// maintained equal to what Analyze would produce on the current circuit.
	// Callers may read them; writing them is undefined behaviour.
	Arrival  []float64
	Required []float64
	Load     []float64

	worst float64
	fan   *netlist.Fanouts
	// recs holds each gate's timing record, equal to one built fresh from
	// its current cell and rail: SetVolt, SetCell, AddGate, Rollback and
	// SetLibrary refresh it where those change.
	recs []gateTiming

	// prio is a topological numbering of gates: strictly increasing along
	// every driver→consumer edge. Propagation in prio order visits each gate
	// at most once per wave. The gates live at construction are numbered by
	// their position in order; AddGate interpolates fractional priorities.
	prio  []float64
	order []int

	// fwd re-propagates arrival times in ascending priority, bwd required
	// times in descending priority.
	fwd, bwd wave
	poDirty  bool
	// sweeping is set between BeginSweep and EndSweep: moves queue the
	// waves without settling them.
	sweeping bool

	// journal is the undo log Rollback replays in reverse and ChangedSince
	// reads forward. The old cell of each recCell entry sits on cells, in the
	// same order, so that the records themselves stay pointer-free.
	journal []undoRec
	cells   []*cell.Cell
	evals   int64
}

// Mark is a journal position returned by Checkpoint and consumed by Rollback
// and ChangedSince.
type Mark int

type undoKind uint8

const (
	recArrival undoKind = iota
	recRequired
	recLoad
	recWorst
	recVolt
	recCell
	recPin
	recAdd
	recDead
)

// undoRec is one journal entry: a is the signal (timing values) or gate
// (circuit changes), f the old value, b the pin of a recPin or the old rail
// of a recVolt, and c the old source signal of a recPin. It holds no pointer
// and packs into 24 bytes; gate and signal indices fit int32 for any circuit
// that fits in memory.
type undoRec struct {
	f       float64
	a, b, c int32
	kind    undoKind
}

// NewIncremental runs one full analysis and wraps it in an incremental
// engine.
func NewIncremental(ckt *netlist.Circuit, lib *cell.Library, tspec float64) (*Incremental, error) {
	t, err := Analyze(ckt, lib, tspec)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{
		ckt:      ckt,
		lib:      lib,
		tspec:    tspec,
		Arrival:  t.Arrival,
		Required: t.Required,
		Load:     t.Load,
		worst:    t.WorstArrival,
		fan:      t.fan,
		recs:     t.recs,
		prio:     make([]float64, len(ckt.Gates)),
		order:    t.order,
		fwd:      newWave(1, t.order, len(ckt.Gates)),
		bwd:      newWave(-1, t.order, len(ckt.Gates)),
	}
	for i := range inc.prio {
		inc.prio[i] = -1 // dead gates never propagate
	}
	for i, gi := range t.order {
		inc.prio[gi] = float64(i)
	}
	return inc, nil
}

// Tspec returns the timing constraint the engine analyses against.
func (t *Incremental) Tspec() float64 { return t.tspec }

// Circuit returns the circuit the engine times. Mutate it only through the
// engine.
func (t *Incremental) Circuit() *netlist.Circuit { return t.ckt }

// Library returns the cell library the engine times against.
func (t *Incremental) Library() *cell.Library { return t.lib }

// SetLibrary swaps the engine's library without re-analysing. It is only
// legal when the swap preserves the annotation bit for bit: the new library
// must share the old one's cell data and wire parameters (cell.Library.AtRails
// guarantees this) and every live gate must sit at VHigh with no
// level converters present — at that baseline the derate of every instance is
// exactly 1.0 under any reduced-rail table, so arrivals, requireds, slacks
// and loads are independent of the rails below the nominal one. A warm sweep
// calls this between points to retarget one baseline engine across its VDDL
// (or rail-table) axis. The engine checks the gate
// condition and refuses the swap otherwise, and re-reads every gate's derate
// from the new library.
func (t *Incremental) SetLibrary(lib *cell.Library) error {
	t.noSweep("SetLibrary")
	if lib.VddOf(cell.VHigh) != t.lib.VddOf(cell.VHigh) || lib.WireCapPerFanout != t.lib.WireCapPerFanout ||
		lib.POLoadCap != t.lib.POLoadCap {
		return fmt.Errorf("sta: SetLibrary would change high-rail timing parameters")
	}
	for _, g := range t.ckt.Gates {
		if !g.Dead && (g.Volt != cell.VHigh || g.IsLC) {
			return fmt.Errorf("sta: SetLibrary on a non-baseline circuit (gate %s is %s/LC=%v)",
				g.Name, g.Volt, g.IsLC)
		}
	}
	t.lib = lib
	for gi, g := range t.ckt.Gates {
		t.recs[gi].derate = lib.Derate(g.Volt)
	}
	return nil
}

// Slack returns signal s's slack, Required[s] - Arrival[s]: the subtraction
// Timing.Slack performs, so it is bit-identical to a fresh analysis' slack.
func (t *Incremental) Slack(s netlist.Signal) float64 { return t.Required[s] - t.Arrival[s] }

// WorstArrival returns the latest primary-output arrival time.
func (t *Incremental) WorstArrival() float64 { return t.worst }

// Meets reports whether every PO meets the constraint within eps.
func (t *Incremental) Meets(eps float64) bool { return t.worst <= t.tspec+eps }

// Fanouts exposes the live consumer table the engine maintains.
func (t *Incremental) Fanouts() *netlist.Fanouts { return t.fan }

// Evals returns the number of per-gate timing recomputations performed so
// far, the work metric a full re-analysis pays n of per mutation.
func (t *Incremental) Evals() int64 { return t.evals }

// Order returns the gates in the topological order Analyze used at
// construction. It does not follow structural changes (a gate added since is
// missing, a gate killed since is still listed), so it holds only where none
// is in effect: on a circuit without level converters, which is where every
// caller reads it (Dscale's converters are rolled back before anything else
// runs). There the live gates sorted by priority are exactly this order,
// since original gates keep their priorities for the engine's lifetime.
func (t *Incremental) Order() []int { return t.order }

// ChangedSince appends to buf the signals named by the journal records
// appended since m and returns the extended buf (so steady-state callers
// allocate nothing). A value record names its signal; a voltage, cell, add
// or kill record names the gate's output and fanins; a pin record names the
// pin's old and current source. Together they cover every signal whose
// arrival, required time or load (and so slack), consumer set or consumers'
// rails, or driving gate's voltage, cell or liveness changed since m. Spurious entries are
// possible and a signal may repeat. Changes rolled back are not reported.
// Commit, or a Rollback below m, invalidates m.
func (t *Incremental) ChangedSince(m Mark, buf []netlist.Signal) []netlist.Signal {
	for _, r := range t.journal[m:] {
		switch r.kind {
		case recArrival, recRequired, recLoad:
			buf = append(buf, netlist.Signal(r.a))
		case recVolt, recCell, recAdd, recDead:
			// The voltage move itself matters even when no timing value
			// shifts: a consumer's rail decides whether its driver would need
			// a level converter, so driver-side caches keyed on the fanin
			// nets must see it.
			buf = append(buf, t.ckt.GateSignal(int(r.a)))
			buf = append(buf, t.ckt.Gates[r.a].In...)
		case recPin:
			buf = append(buf, netlist.Signal(r.c), t.ckt.Gates[r.a].In[r.b])
		}
	}
	return buf
}

// ArrivalWith returns gi's output arrival from the live fanin arrivals as if
// the gate were bound to cl on rail v with output load load. It is the
// engine's one what-if: a caller that shifts the live load passes
// Load[out]+dLoad, the sum it would settle to. Like every read, it counts no
// evaluation.
func (t *Incremental) ArrivalWith(gi int, cl *cell.Cell, v cell.VoltLevel, load float64) float64 {
	rec := timingOf(cl, t.lib.Derate(v))
	return gateArrivalAt(t.ckt, t.Arrival, gi, &rec, load)
}

// PinArrival returns the arrival gi's input pin contributes at its output:
// the pin's driver arrival plus the pin's delay at the gate's live cell, rail
// and load.
func (t *Incremental) PinArrival(gi, pin int) float64 {
	return t.Arrival[t.ckt.Gates[gi].In[pin]] + t.recs[gi].delay(pin, t.Load[t.ckt.GateSignal(gi)])
}

// SetVolt moves gate gi to the given supply rail and re-times the affected
// cones (inside a sweep, queues them).
func (t *Incremental) SetVolt(gi int, v cell.VoltLevel) {
	g := t.ckt.Gates[gi]
	if g.Volt == v {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recVolt, a: int32(gi), b: int32(g.Volt)})
	g.Volt = v
	t.recs[gi].derate = t.lib.Derate(v)
	t.fwd.push(gi, t.prio)
	t.bwd.push(gi, t.prio)
	if !t.sweeping {
		t.settle()
	}
}

// SetCell rebinds gate gi to cl (same function, different size), adjusting
// the fanin nets' loads for the new pin capacitances and re-timing (inside a
// sweep, queueing the re-timing).
func (t *Incremental) SetCell(gi int, cl *cell.Cell) {
	g := t.ckt.Gates[gi]
	if g.Cell == cl {
		return
	}
	if cl.NumInputs() != g.Cell.NumInputs() {
		panic(fmt.Sprintf("sta: SetCell %s: %d-input cell for %d pins", g.Name, cl.NumInputs(), len(g.In)))
	}
	t.journal = append(t.journal, undoRec{kind: recCell, a: int32(gi)})
	t.cells = append(t.cells, g.Cell)
	g.Cell = cl
	t.recs[gi] = timingOf(cl, t.recs[gi].derate)
	for _, s := range g.In {
		t.reload(s)
	}
	t.fwd.push(gi, t.prio)
	t.bwd.push(gi, t.prio)
	if !t.sweeping {
		t.settle()
	}
}

// RewirePin reconnects input pin of gate gi to signal to. The new driver must
// precede gi topologically (rewiring to a signal downstream of gi would
// create a cycle or invalidate the propagation priorities).
func (t *Incremental) RewirePin(gi, pin int, to netlist.Signal) error {
	t.noSweep("RewirePin")
	g := t.ckt.Gates[gi]
	from := g.In[pin]
	if from == to {
		return nil
	}
	if di := t.ckt.GateIndex(to); di >= 0 && t.prio[di] >= t.prio[gi] {
		return fmt.Errorf("sta: RewirePin %s pin %d to %s would break topological order",
			g.Name, pin, t.ckt.SignalName(to))
	}
	t.journal = append(t.journal, undoRec{kind: recPin, a: int32(gi), b: int32(pin), c: int32(from)})
	g.In[pin] = to
	cn := netlist.Conn{Gate: gi, Pin: pin}
	t.fan.Disconnect(from, cn)
	t.fan.Connect(to, cn)
	t.reload(from)
	t.reload(to)
	t.rerequire(from)
	t.rerequire(to)
	t.fwd.push(gi, t.prio)
	t.bwd.push(gi, t.prio)
	t.settle()
	return nil
}

// AddGate appends a new gate through the engine (the structural primitive
// behind level-converter insertion) and times it in. Its consumers are wired
// up afterwards with RewirePin.
func (t *Incremental) AddGate(name string, cl *cell.Cell, in ...netlist.Signal) (int, netlist.Signal) {
	t.noSweep("AddGate")
	gi, out := t.ckt.AddGate(name, cl, in...)
	t.journal = append(t.journal, undoRec{kind: recAdd, a: int32(gi)})
	t.Arrival = append(t.Arrival, 0)
	t.Required = append(t.Required, math.Inf(1))
	t.Load = append(t.Load, 0)
	t.recs = append(t.recs, timingOf(cl, t.lib.Derate(t.ckt.Gates[gi].Volt)))
	t.fan.Grow(t.ckt.NumSignals())
	t.fwd.in = append(t.fwd.in, false)
	t.bwd.in = append(t.bwd.in, false)
	// Priority strictly after every fanin driver but strictly before the next
	// integer: original gates carry integer priorities, so the new gate sorts
	// before every pre-existing consumer of its sources (which may then be
	// rewired onto it), and chained insertions keep halving the remaining gap
	// instead of colliding with an existing gate.
	base := -1.0
	for _, s := range in {
		if di := t.ckt.GateIndex(s); di >= 0 && t.prio[di] > base {
			base = t.prio[di]
		}
	}
	t.prio = append(t.prio, base+float64((math.Floor(base)+1-base)/2))
	g := t.ckt.Gates[gi]
	for pin, s := range g.In {
		t.fan.Connect(s, netlist.Conn{Gate: gi, Pin: pin})
	}
	for _, s := range g.In {
		t.reload(s)
		t.rerequire(s)
	}
	t.fwd.push(gi, t.prio)
	t.settle()
	return gi, out
}

// KillGate marks a gate dead (level-converter cleanup). The gate must have no
// remaining consumers.
func (t *Incremental) KillGate(gi int) error {
	t.noSweep("KillGate")
	g := t.ckt.Gates[gi]
	out := t.ckt.GateSignal(gi)
	if t.fan.Degree(out) != 0 {
		return fmt.Errorf("sta: KillGate %s still has %d consumers", g.Name, t.fan.Degree(out))
	}
	t.journal = append(t.journal, undoRec{kind: recDead, a: int32(gi)})
	g.Dead = true
	for pin, s := range g.In {
		t.fan.Disconnect(s, netlist.Conn{Gate: gi, Pin: pin})
	}
	for _, s := range g.In {
		t.reload(s)
		t.rerequire(s)
	}
	// A dead gate's output reads as a fresh Analyze leaves it: never visited.
	t.setArrival(int(out), 0)
	t.setRequired(out, math.Inf(1))
	t.settle()
	return nil
}

// Checkpoint marks the current state for a later Rollback.
func (t *Incremental) Checkpoint() Mark {
	t.noSweep("Checkpoint")
	return Mark(len(t.journal))
}

// Rollback restores the engine and the circuit to the state at mark,
// reversing every mutation applied since, in time proportional to the work
// done since the mark.
func (t *Incremental) Rollback(m Mark) {
	t.noSweep("Rollback")
	for i := len(t.journal) - 1; i >= int(m); i-- {
		r := t.journal[i]
		gi := int(r.a)
		switch r.kind {
		case recArrival:
			t.Arrival[r.a] = r.f
		case recRequired:
			t.Required[r.a] = r.f
		case recLoad:
			t.Load[r.a] = r.f
		case recWorst:
			t.worst = r.f
		case recVolt:
			t.ckt.Gates[gi].Volt = cell.VoltLevel(r.b)
			t.recs[gi].derate = t.lib.Derate(cell.VoltLevel(r.b))
		case recCell:
			last := len(t.cells) - 1
			t.ckt.Gates[gi].Cell = t.cells[last]
			t.recs[gi] = timingOf(t.cells[last], t.recs[gi].derate)
			t.cells[last] = nil
			t.cells = t.cells[:last]
		case recPin:
			g := t.ckt.Gates[gi]
			pin, from := int(r.b), netlist.Signal(r.c)
			cn := netlist.Conn{Gate: gi, Pin: pin}
			t.fan.Disconnect(g.In[pin], cn)
			t.fan.Connect(from, cn)
			g.In[pin] = from
		case recAdd:
			g := t.ckt.Gates[gi]
			for pin, s := range g.In {
				t.fan.Disconnect(s, netlist.Conn{Gate: gi, Pin: pin})
			}
			t.ckt.Gates = t.ckt.Gates[:gi]
			n := t.ckt.NumSignals()
			t.Arrival = t.Arrival[:n]
			t.Required = t.Required[:n]
			t.Load = t.Load[:n]
			t.recs = t.recs[:gi]
			t.fan.Shrink(n)
			t.prio = t.prio[:gi]
			t.fwd.in = t.fwd.in[:gi]
			t.bwd.in = t.bwd.in[:gi]
		case recDead:
			g := t.ckt.Gates[gi]
			g.Dead = false
			for pin, s := range g.In {
				t.fan.Connect(s, netlist.Conn{Gate: gi, Pin: pin})
			}
		}
	}
	t.journal = t.journal[:m]
}

// Commit discards the undo history accumulated so far; earlier Marks become
// invalid. Call it once a batch of moves is final to bound journal growth.
func (t *Incremental) Commit() {
	t.journal = t.journal[:0]
	clear(t.cells)
	t.cells = t.cells[:0]
}

// BeginSweep starts a reverse sweep. Until EndSweep, SetCell and SetVolt
// refresh loads, timing records and the journal as always but only queue
// both waves; SettleAt settles what one gate's reads depend on. Checkpoint,
// Rollback, RewirePin, AddGate, KillGate and SetLibrary panic inside a sweep,
// since they need settled waves; Commit stays legal.
func (t *Incremental) BeginSweep() { t.sweeping = true }

// SettleAt drains the forward wave up to gi's priority and the backward wave
// down to it. Afterwards these reads are bit-identical to a settled engine's:
// the arrivals of gi and of every gate of lower priority, the required time
// and slack of gi's output, ArrivalWith(gi, …) and PinArrival(gi, …). An
// arrival depends only on gates of lower priority and a required time only on
// gates of higher priority, and both waves recompute each value from settled
// inputs with the kernels Analyze uses. Other reads, WorstArrival and Meets
// included, may be stale until EndSweep.
func (t *Incremental) SettleAt(gi int) {
	p := t.prio[gi]
	t.runForward(p)
	t.runBackward(p)
}

// EndSweep settles both waves in full and ends the sweep.
func (t *Incremental) EndSweep() {
	t.sweeping = false
	t.settle()
}

// noSweep panics when op is called inside a sweep.
func (t *Incremental) noSweep(op string) {
	if t.sweeping {
		panic("sta: " + op + " inside a sweep")
	}
}

// Check validates the incremental annotation against a fresh full analysis —
// the differential oracle. It returns the first live gate whose timing
// record differs at all from the one the fresh analysis built from the
// gate's cell and rail, or else the first value off by more than eps.
func (t *Incremental) Check(eps float64) error {
	fresh, err := Analyze(t.ckt, t.lib, t.tspec)
	if err != nil {
		return err
	}
	if len(t.recs) != len(fresh.recs) {
		return fmt.Errorf("sta: incremental engine has %d timing records for %d gates", len(t.recs), len(fresh.recs))
	}
	for gi, g := range t.ckt.Gates {
		if !g.Dead && t.recs[gi] != fresh.recs[gi] {
			return fmt.Errorf("sta: incremental timing record of %s stale: %+v vs %+v", g.Name, t.recs[gi], fresh.recs[gi])
		}
	}
	cmp := func(what string, got, want []float64) error {
		for s := range want {
			g, w := got[s], want[s]
			if g == w {
				continue
			}
			if math.Abs(g-w) > eps {
				return fmt.Errorf("sta: incremental %s stale at %s: %.12g vs %.12g",
					what, t.ckt.SignalName(netlist.Signal(s)), g, w)
			}
		}
		return nil
	}
	if err := cmp("load", t.Load, fresh.Load); err != nil {
		return err
	}
	if err := cmp("arrival", t.Arrival, fresh.Arrival); err != nil {
		return err
	}
	if err := cmp("required", t.Required, fresh.Required); err != nil {
		return err
	}
	if math.Abs(t.worst-fresh.WorstArrival) > eps {
		return fmt.Errorf("sta: incremental worst arrival stale: %.12g vs %.12g", t.worst, fresh.WorstArrival)
	}
	return nil
}

// --- propagation internals ---

// reload refreshes Load[s] and, on change, seeds the driver of s in both
// directions (its delay depends on the output load).
func (t *Incremental) reload(s netlist.Signal) {
	nl := signalLoad(t.ckt, t.lib, t.fan, s)
	if nl == t.Load[s] {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recLoad, a: int32(s), f: t.Load[s]})
	t.Load[s] = nl
	if di := t.ckt.GateIndex(s); di >= 0 && !t.ckt.Gates[di].Dead {
		t.fwd.push(di, t.prio)
		t.bwd.push(di, t.prio)
	}
}

// rerequire recomputes Required[s] from its current consumers (and tspec
// where it feeds a PO), seeding the driver backward on change. The value may
// still be transient — later pops of s's consumers recompute it with settled
// inputs.
func (t *Incremental) rerequire(s netlist.Signal) {
	t.evals++
	t.setRequired(s, requiredAt(t.ckt, t.recs, t.fan, t.Required, t.Load, t.tspec, s))
}

func (t *Incremental) setRequired(s netlist.Signal, r float64) {
	old := t.Required[s]
	if r == old {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recRequired, a: int32(s), f: old})
	t.Required[s] = r
	if di := t.ckt.GateIndex(s); di >= 0 && !t.ckt.Gates[di].Dead {
		t.bwd.push(di, t.prio)
	}
}

func (t *Incremental) setArrival(out int, a float64) {
	if a == t.Arrival[out] {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recArrival, a: int32(out), f: t.Arrival[out]})
	t.Arrival[out] = a
	for _, cn := range t.fan.Conns[out] {
		t.fwd.push(cn.Gate, t.prio)
	}
	if t.fan.POs[out] > 0 {
		t.poDirty = true
	}
}

// settle drains both propagation waves and, when a PO arrival moved,
// refreshes the worst PO arrival.
func (t *Incremental) settle() {
	t.runForward(math.Inf(1))
	t.runBackward(math.Inf(-1))
	if t.poDirty {
		w := 0.0
		for _, po := range t.ckt.POs {
			if a := t.Arrival[po.Src]; a > w {
				w = a
			}
		}
		if w != t.worst {
			t.journal = append(t.journal, undoRec{kind: recWorst, f: t.worst})
			t.worst = w
		}
		t.poDirty = false
	}
}

// runForward re-propagates arrival times in increasing priority order, up to
// priority limit: when a gate is popped every upstream change has settled, so
// each gate is evaluated at most once per wave.
func (t *Incremental) runForward(limit float64) {
	for gi := t.fwd.pop(limit, t.prio); gi >= 0; gi = t.fwd.pop(limit, t.prio) {
		if t.ckt.Gates[gi].Dead {
			continue
		}
		t.evals++
		out := t.ckt.GateSignal(gi)
		t.setArrival(int(out), gateArrivalAt(t.ckt, t.Arrival, gi, &t.recs[gi], t.Load[out]))
	}
}

// runBackward re-propagates required times in decreasing priority order, down
// to priority limit; a gate's pop recomputes the required time at each of its
// fanins.
func (t *Incremental) runBackward(limit float64) {
	for gi := t.bwd.pop(limit, t.prio); gi >= 0; gi = t.bwd.pop(limit, t.prio) {
		if t.ckt.Gates[gi].Dead {
			continue
		}
		for _, s := range t.ckt.Gates[gi].In {
			t.rerequire(s)
		}
	}
}

// wave is the queue of one propagation wave. It pops gates in ascending
// sign·prio[gate], so the forward wave (sign 1) pops in ascending and the
// backward wave (sign −1) in descending topological priority; negation is
// exact, so each wave pops in the order of the priorities themselves. A gate
// is queued at most once.
//
// The gates live at construction have the integer priorities 0..n−1, their
// positions in order, and queue as one bit per position in bits, popped by a
// scan from the cursor cur in the wave's direction. No queued bit lies
// before cur: within a drain every push lies beyond the gate just popped, a
// push before cur moves it back, and a drain cut short by its limit leaves
// cur on the first queued bit beyond it. A drained wave's cursor is at the
// start, position 0 forward and n−1 backward. The other gates, those AddGate
// inserted (fractional priorities) and those dead at construction (−1),
// queue on a binary heap keyed by sign·prio, with in marking the queued
// ones. pop takes the lesser of the two heads; no heap priority equals a
// position, so they never tie.
type wave struct {
	sign  float64
	order []int
	bits  []uint64
	cur   int
	heap  []int
	in    []bool
}

// newWave returns an empty wave for a construction order and a gate count.
func newWave(sign float64, order []int, gates int) wave {
	w := wave{sign: sign, order: order, bits: make([]uint64, (len(order)+63)/64), in: make([]bool, gates)}
	w.cur = w.start()
	return w
}

// start is the position a scan begins at: the first position in the wave's
// direction.
func (w *wave) start() int {
	if w.sign > 0 {
		return 0
	}
	return len(w.order) - 1
}

// push queues gate gi unless it is queued already.
func (w *wave) push(gi int, prio []float64) {
	p := prio[gi]
	if k := int(p); k >= 0 && float64(k) == p {
		word, bit := k>>6, uint64(1)<<(k&63)
		if w.bits[word]&bit != 0 {
			return
		}
		w.bits[word] |= bit
		if (w.sign > 0 && k < w.cur) || (w.sign < 0 && k > w.cur) {
			w.cur = k
		}
		return
	}
	if w.in[gi] {
		return
	}
	w.in[gi] = true
	w.heap = append(w.heap, gi)
	key := w.sign * p
	for i := len(w.heap) - 1; i > 0; {
		up := (i - 1) / 2
		if w.sign*prio[w.heap[up]] <= key {
			break
		}
		w.heap[up], w.heap[i] = w.heap[i], w.heap[up]
		i = up
	}
}

// pop dequeues and returns the queued gate of least sign·prio if that key is
// at most sign·limit, else returns −1 and leaves the wave as it is. A limit
// of sign·+Inf drains the wave; a gate's priority drains it up to that gate
// (forward) or down to it (backward).
func (w *wave) pop(limit float64, prio []float64) int {
	bound := w.sign * limit
	k := w.scan()
	if len(w.heap) > 0 && (k < 0 || w.sign*prio[w.heap[0]] < w.sign*float64(k)) {
		if w.sign*prio[w.heap[0]] > bound {
			return -1
		}
		return w.popHeap(prio)
	}
	if k < 0 || w.sign*float64(k) > bound {
		return -1
	}
	w.bits[k>>6] &^= 1 << (k & 63)
	return w.order[k]
}

// scan moves the cursor to the first queued bit at or beyond it in the
// wave's direction and returns that position, or returns −1 with the cursor
// back at the start when no bit is queued.
func (w *wave) scan() int {
	if w.sign > 0 {
		mask := ^uint64(0) << (w.cur & 63)
		for i := w.cur >> 6; i < len(w.bits); i++ {
			if word := w.bits[i] & mask; word != 0 {
				w.cur = i<<6 | bits.TrailingZeros64(word)
				return w.cur
			}
			mask = ^uint64(0)
		}
	} else {
		mask := ^uint64(0) >> (63 - w.cur&63)
		for i := w.cur >> 6; i >= 0; i-- {
			if word := w.bits[i] & mask; word != 0 {
				w.cur = i<<6 | (63 - bits.LeadingZeros64(word))
				return w.cur
			}
			mask = ^uint64(0)
		}
	}
	w.cur = w.start()
	return -1
}

// popHeap dequeues and returns the heap gate of least sign·prio.
func (w *wave) popHeap(prio []float64) int {
	h := w.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && w.sign*prio[h[l]] < w.sign*prio[h[m]] {
			m = l
		}
		if r < last && w.sign*prio[h[r]] < w.sign*prio[h[m]] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	w.heap = h
	w.in[top] = false
	return top
}
