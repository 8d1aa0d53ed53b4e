package dualvdd

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dualvdd/internal/core"
	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// WarmDesign is a prepared design plus the reusable execution state of a warm
// sweep: one working clone of the mapped circuit and one incremental timing
// engine, built once and then retargeted across voltage points. Everything
// expensive about a point — the technology mapping, the activity simulation,
// the baseline full timing analysis — is a property of the circuit alone, not
// of the low rail, so a sweep that re-derives it per point pays the same bill
// over and over. RunAt instead swaps the library's low rail (an annotation
// no-op at the all-VHigh baseline), runs the CVS clustering all three
// algorithms begin with once per point inside a Checkpoint/Rollback fence on
// the shared engine, continues each algorithm from that post-CVS state, and
// reads power from the baseline activity table. Results are bit-identical to
// standalone Flow runs, STAEvals included (the cold/warm differential suite
// holds them to it); only the wall clock differs, and the engine itself
// evaluates less than the results' evaluation counts add up to.
//
// A WarmDesign serializes its runs: RunAt holds an internal lock, so
// concurrent callers take turns on the one engine. Parallelism comes from
// more engines: NewWarmDesign over the same Design builds another for the
// price of one timing analysis, which is how a Local runs a warm-prep
// group's members side by side.
type WarmDesign struct {
	// Design is the prepared benchmark the runs share. Its pristine Circuit
	// is never touched; the WarmDesign works on its own clone.
	Design *Design

	mu   sync.Mutex
	work *netlist.Circuit // guarded by mu
	inc  *sta.Incremental // guarded by mu
}

// NewWarmDesign builds the shared execution state from a prepared design: one
// working clone and one incremental engine (one full timing analysis — the
// last one until the WarmDesign is dropped).
func NewWarmDesign(d *Design) (*WarmDesign, error) {
	work := d.Circuit.Clone()
	inc, err := sta.NewIncremental(work, d.Lib, d.Tspec)
	if err != nil {
		return nil, err
	}
	return &WarmDesign{Design: d, work: work, inc: inc}, nil
}

// PrepareWarm maps a logic network, measures its original power and wraps the
// design for warm multi-point execution.
func (f *Flow) PrepareWarm(ctx context.Context, net *logic.Network) (*WarmDesign, error) {
	d, err := prepare(ctx, net, f.cfg, f.obs)
	if err != nil {
		return nil, err
	}
	return NewWarmDesign(d)
}

// PrepareWarmBenchmark is PrepareWarm for one of the MCNC stand-in
// benchmarks.
func (f *Flow) PrepareWarmBenchmark(ctx context.Context, name string) (*WarmDesign, error) {
	d, err := prepareBenchmark(ctx, name, f.cfg, f.obs)
	if err != nil {
		return nil, err
	}
	return NewWarmDesign(d)
}

// RunAt executes the given algorithms (all three when empty, in any order,
// repeats allowed) at the given rail vector — [vhigh, vlow] for the classic
// pair, any longer descending list for multi-rail scaling; rails[0] must
// equal the prepared design's high rail — reusing the shared prepared state.
// It checkpoints the all-VHigh baseline, runs the CVS clustering every
// algorithm begins with once, and runs each algorithm's continuation from
// that post-CVS state with the journal intact and the baseline activity
// table (core.Run), reading each final power from the table, before rolling
// the working circuit back to the baseline — no mapping, no simulation, no
// full analysis. Results are bit-identical to Design.RunAlgorithm at the
// same rails, with two deliberate exceptions: Runtime measures the (much
// smaller) warm work, and Circuit is nil — the working clone is rolled back,
// so there is no scaled netlist to hand out. The Runtimes tile the
// call: the first algorithm's includes the shared CVS run, and each later
// one's starts where the previous result was finished. A cancelled context
// aborts within one algorithm iteration with ctx.Err(), alongside the
// results finished before it; the baseline is restored before returning, so
// the WarmDesign stays valid for further points.
func (w *WarmDesign) RunAt(ctx context.Context, rails []float64, algos []Algorithm, obs Observer) ([]*FlowResult, error) {
	if len(algos) == 0 {
		algos = Algorithms()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.Design
	lib, err := d.Lib.AtRails(rails)
	if err != nil {
		return nil, fmt.Errorf("dualvdd: warm run on %s: %w", d.Name, err)
	}
	// At the all-VHigh baseline every derate is exactly 1.0, so swapping the
	// low rail preserves the engine's annotation bit for bit.
	if err := w.inc.SetLibrary(lib); err != nil {
		return nil, fmt.Errorf("dualvdd: warm run on %s: %w", d.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := d.coreOptions(ctx, obs)
	opts.KeepJournal = true

	mark := w.inc.Checkpoint()
	// Rollback before returning on every path: the baseline must be restored
	// even when an algorithm aborts mid-run (cancellation, a violated
	// constraint), or the shared state would poison every later point.
	defer w.inc.Rollback(mark)

	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = string(a)
	}
	results := make([]*FlowResult, 0, len(algos))
	var violated error
	last := time.Now() //lint:wallclock-ok timing metric only; never feeds results
	err = core.Run(w.inc, names, opts, func(i int, cres *core.Result) error {
		algo := algos[i]
		elapsed := time.Since(last) //lint:wallclock-ok timing metric only; never feeds results
		// The constraint must hold after every algorithm — verify, don't
		// trust. The engine's annotation is bit-identical to a fresh Analyze
		// by contract (the differential suite and every cold run hold it to
		// that), so its own verdict stands in for the cold path's full
		// re-analysis.
		if !w.inc.Meets(1e-6) {
			violated = fmt.Errorf("dualvdd: %s on %s violated timing: %.4f > %.4f",
				algo, d.Name, w.inc.WorstArrival(), d.Tspec)
			return violated
		}
		// Priced over the engine's loads — bit-identical to the cold path's
		// estimate over its fresh analysis's loads, without a fanout
		// rebuild: the engine keeps its loads equal to sta.Loads bit for
		// bit. The working clone is rolled back, so Circuit stays nil.
		fr := d.result(string(algo), w.work, lib, cres, w.inc.Load, w.inc.WorstArrival(), elapsed)
		obs.emit(EventResult{Circuit: d.Name, Result: fr})
		results = append(results, fr)
		last = time.Now() //lint:wallclock-ok timing metric only; never feeds results
		return nil
	})
	if err != nil && violated == nil {
		// A failure inside core cut short the first algorithm not finished.
		err = d.runErr(algos[len(results)], err)
	}
	return results, err
}

// prepWire is the wire form of the part of a Config a warm-prep group
// depends on: "vlow" is written as 0. The mapping, the timing constraint, the
// activity table and the original power are all properties of the circuit
// under the nominal rail, never of the lower ones (the library is retargeted
// per point via AtRails). The algorithm list is excluded too: one prepared
// state serves any algorithm. A list of three or more rails stays whole in
// the bytes, so multi-rail points share prepared state (and fleet placement)
// only with points on the same rail table. Sweep chains group by the same
// bytes.
func prepWire(cfg Config) ([]byte, error) {
	h := cfg.head()
	h.Vlow = 0
	return cfg.encode(h)
}
