// Package dualvdd is the public entry point of this reproduction of
// "Gate-Level Design Exploiting Dual Supply Voltages for Power-Driven
// Applications" (Yeh, Chang, Chang, Jone — DAC 1999). It wires the substrate
// packages (cell library, technology mapper, static timing, random-vector
// power estimation) into the paper's experimental flow and exposes the three
// scaling algorithms:
//
//	CVS    — clustered voltage scaling (the Usami–Horowitz baseline),
//	Dscale — slack harvesting with a maximum-weight independent set,
//	Gscale — slack creation by separator-cut gate sizing.
//
// See internal/core for the algorithmics and DESIGN.md for the full map
// from the paper to this repository.
//
// The entry point is the context-aware Flow, built with functional options;
// it supports cancellation, deadlines and typed progress events, and
// composes with Batch for parallel suite evaluation:
//
//	flow := dualvdd.New(
//		dualvdd.WithVoltages(5.0, 4.3),
//		dualvdd.WithObserver(func(ev dualvdd.Event) { ... }),
//	)
//	d, err := flow.PrepareBenchmark(ctx, "C880")
//	res, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
//	fmt.Printf("%.2f%% power saved\n", res.ImprovePct)
//
// Code that still assembles the flat Config struct builds its Flow with
// FromConfig.
package dualvdd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dualvdd/internal/blif"
	"dualvdd/internal/cell"
	"dualvdd/internal/core"
	"dualvdd/internal/logic"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sta"
)

// Config collects every knob of the paper's evaluation setup; DefaultConfig
// reproduces the published numbers' conditions. Its JSON form is written by
// MarshalJSON, which keeps the supply list on the wire as it was before the
// list existed.
type Config struct {
	// Rails is the sorted (strictly descending) supply list of two or more
	// rails; Rails[0] is the nominal supply. The paper uses the pair (5, 4.3)
	// "in accordance with our internal design project". Longer lists follow
	// the multi-supply-voltage line of the related work: gates demote one
	// rail step at a time and level converters are charged per crossed
	// boundary. On the wire the list is "vhigh" and "vlow" (its first and
	// last rail), plus "rails" when there are three or more.
	Rails []float64 `json:"-"`
	// SlackFactor loosens the timing constraint over the minimum-delay
	// mapping (1.2 = the paper's 20%).
	SlackFactor float64 `json:"slack_factor"`
	// MaxAreaIncrease is Gscale's area budget (0.10 in the paper).
	MaxAreaIncrease float64 `json:"max_area_increase"`
	// MaxIter is Gscale's unsuccessful-push bound (10 in the paper).
	MaxIter int `json:"max_iter"`
	// SimWords is the number of 64-vector words for power estimation, at
	// most MaxSimWords.
	SimWords int `json:"sim_words"`
	// Seed drives the random simulation.
	Seed uint64 `json:"seed"`
	// Fclk is the power-estimation clock (20 MHz in the paper).
	Fclk float64 `json:"fclk_hz"`
	// GreedySelect and GreedySizing swap the paper's combinatorial
	// formulations (MWIS selection in Dscale, separator-cut sizing in
	// Gscale) for greedy baselines. They exist for the ablation benchmarks.
	GreedySelect bool `json:"greedy_select,omitempty"`
	GreedySizing bool `json:"greedy_sizing,omitempty"`
}

// MaxSimWords bounds Config.SimWords at 4,096 times the paper's 256 words, so
// one request cannot hold a worker for hours.
const MaxSimWords = 1 << 20

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Rails:           []float64{5.0, 4.3},
		SlackFactor:     1.2,
		MaxAreaIncrease: 0.10,
		MaxIter:         10,
		SimWords:        256,
		Seed:            1,
		Fclk:            power.DefaultClock,
	}
}

// railHead is the supply part of a Config's wire form: the first and last
// rail as "vhigh" and "vlow", and the whole list as "rails" only past two
// entries, so a two-rail Config keeps the bytes and content addresses it had
// as a plain pair.
type railHead struct {
	Vhigh float64   `json:"vhigh"`
	Vlow  float64   `json:"vlow"`
	Rails []float64 `json:"rails,omitempty"`
}

// head returns the rail head of the Config's wire form; an empty list writes
// a zero pair.
func (c Config) head() railHead {
	var h railHead
	if n := len(c.Rails); n > 0 {
		h.Vhigh, h.Vlow = c.Rails[0], c.Rails[n-1]
		if n > 2 {
			h.Rails = c.Rails
		}
	}
	return h
}

// configFields is Config without its JSON methods: it encodes every field but
// Rails, in declaration order.
type configFields Config

// configWire is the wire form of a Config: embedded struct fields encode in
// place, so the rail head comes first and every other field follows.
type configWire struct {
	*railHead
	*configFields
}

// MarshalJSON writes the wire form: the rail head, then every other field in
// declaration order.
func (c Config) MarshalJSON() ([]byte, error) { return c.encode(c.head()) }

// encode writes the Config's fields behind the given rail head.
func (c Config) encode(h railHead) ([]byte, error) {
	return json.Marshal(configWire{&h, (*configFields)(&c)})
}

// UnmarshalJSON reads the wire form. The rail list is "rails" when present,
// otherwise the [vhigh, vlow] pair. JSON null leaves the Config untouched.
func (c *Config) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var h railHead
	if err := json.Unmarshal(b, &configWire{&h, (*configFields)(c)}); err != nil {
		return err
	}
	c.Rails = h.Rails
	if c.Rails == nil {
		c.Rails = []float64{h.Vhigh, h.Vlow}
	}
	return nil
}

// ErrInvalidConfig is the sentinel every Config.Validate failure wraps. The
// message shape is stable and documented: "dualvdd: invalid config: <field>:
// <reason>", so callers match with errors.Is and humans read one format
// across the CLI, the job service and sweep expansion.
var ErrInvalidConfig = errors.New("dualvdd: invalid config")

// configErr builds the one documented error shape of config validation.
func configErr(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrInvalidConfig, field, fmt.Sprintf(format, args...))
}

// Validate checks the configuration for the degenerate shapes that would
// otherwise slip through to meaningless numbers (a zero or negative rail
// makes the delay derate and power ratio NaN or infinite, an unsorted rail
// list inverts equation (1), zero simulation words divide by zero in activity
// estimation) and for a simulation longer than MaxSimWords. Every entry point
// that accepts a Config — Prepare, Job submission, sweep expansion —
// validates before touching the circuit.
// Failures wrap ErrInvalidConfig. A rail error names the field the wire form
// carries: vhigh or vlow for a pair, rails for a longer list.
func (c Config) Validate() error {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if len(c.Rails) < 2 {
		return configErr("rails", "a rail list needs at least two supplies, got %d", len(c.Rails))
	}
	railErr := func(i int, format string, args ...any) error {
		if len(c.Rails) == 2 {
			return configErr([2]string{"vhigh", "vlow"}[i], format, args...)
		}
		return configErr("rails", "rail %d: "+format, append([]any{i}, args...)...)
	}
	for i, r := range c.Rails {
		switch {
		case !finite(r) || r <= 0:
			return railErr(i, "supply %g must be a positive, finite voltage", r)
		case i > 0 && r >= c.Rails[i-1]:
			return railErr(i, "supply %g must sit strictly below the rail above it (%g)", r, c.Rails[i-1])
		}
	}
	switch {
	case !finite(c.SlackFactor) || c.SlackFactor < 1:
		return configErr("slack_factor", "%g must be ≥ 1 (1 = no relaxation)", c.SlackFactor)
	case !finite(c.MaxAreaIncrease) || c.MaxAreaIncrease < 0:
		return configErr("max_area_increase", "%g must be a non-negative fraction", c.MaxAreaIncrease)
	case c.MaxIter < 0:
		return configErr("max_iter", "%d must be non-negative", c.MaxIter)
	case c.SimWords < 1 || c.SimWords > MaxSimWords:
		return configErr("sim_words", "%d must be between 1 and %d", c.SimWords, MaxSimWords)
	case !finite(c.Fclk) || c.Fclk <= 0:
		return configErr("fclk_hz", "%g must be a positive, finite frequency", c.Fclk)
	}
	return nil
}

// Design is a prepared benchmark: mapped against the dual-voltage library
// with its critical path sitting at the timing constraint, ready for the
// scaling algorithms.
type Design struct {
	// Name is the circuit name.
	Name string
	// Lib is the dual-voltage cell library in use.
	Lib *cell.Library
	// Circuit is the mapped netlist, entirely at Vhigh. Runs operate on
	// clones; Circuit itself stays pristine.
	Circuit *netlist.Circuit
	// MinDelay is the minimum-delay mapping's critical path (ns); Tspec is
	// the constraint handed to the algorithms — the relaxed, area-recovered
	// mapping's own critical path, per the paper's setup.
	MinDelay float64
	Tspec    float64
	// OrgPower is the power of the unscaled circuit in watts (Table 1's
	// OrgPwr column).
	OrgPower float64

	// act is the baseline per-signal switching activity from the original
	// power measurement. Activities depend only on the logic, the seed and
	// the word count — never on voltages — so the table prepared here
	// weights Dscale in every run, cold or warm, at every rail.
	act []float64

	cfg Config
	obs Observer
}

func prepare(ctx context.Context, net *logic.Network, cfg Config, obs Observer) (*Design, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lib := cell.Compass06Rails(cfg.Rails)
	res, err := mapper.Map(net, lib, cfg.SlackFactor)
	if err != nil {
		return nil, fmt.Errorf("dualvdd: mapping %s: %w", net.Name, err)
	}
	d := &Design{
		Name:     net.Name,
		Lib:      lib,
		Circuit:  res.Circuit,
		MinDelay: res.MinDelay,
		Tspec:    res.Tspec,
		cfg:      cfg,
		obs:      obs,
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.OrgPower, d.act, err = power.EstimateRandom(ctx, res.Circuit, lib, cfg.SimWords, cfg.Seed, cfg.Fclk)
	if err != nil {
		return nil, err
	}
	obs.emit(EventMapped{
		Circuit: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower,
	})
	return d, nil
}

func prepareBenchmark(ctx context.Context, name string, cfg Config, obs Observer) (*Design, error) {
	net, err := mcnc.Generate(name)
	if err != nil {
		return nil, err
	}
	return prepare(ctx, net, cfg, obs)
}

// Benchmarks lists the 39 circuit names of the paper's test bed. The list is
// sorted and stable across calls — servers expose it verbatim and clients may
// cache it.
func Benchmarks() []string {
	names := append([]string(nil), mcnc.Names()...)
	sort.Strings(names)
	return names
}

// FlowResult reports one scaling run.
//
// The struct has a stable JSON encoding (snake_case keys, durations in
// nanoseconds) — it is the result schema the server and client exchange.
// Circuit is local-only and never crosses the wire.
type FlowResult struct {
	// Algorithm is "CVS", "Dscale" or "Gscale".
	Algorithm string `json:"algorithm"`
	// Power is the post-scaling total power in watts; ImprovePct the
	// percentage improvement over the design's OrgPower (Table 1).
	Power      float64 `json:"power_w"`
	ImprovePct float64 `json:"improve_pct"`
	// Gates counts live ordinary gates, LowGates those at Vlow, LCs the
	// level converters, Sized the gates Gscale resized (Table 2).
	Gates    int `json:"gates"`
	LowGates int `json:"low_gates"`
	LCs      int `json:"lcs"`
	Sized    int `json:"sized"`
	// LowRatio = LowGates/Gates, AreaIncrease the relative area growth.
	LowRatio     float64 `json:"low_ratio"`
	AreaIncrease float64 `json:"area_increase"`
	// WorstSlack is the timing margin left after scaling: Tspec minus the
	// verified critical-path arrival, in ns. A successful run keeps it
	// non-negative up to the verification epsilon (1e-6 ns) — a larger
	// violation is an error, never a result. It is the timing axis of sweep
	// Pareto extraction.
	WorstSlack float64 `json:"worst_slack_ns"`
	// Runtime is the wall-clock time of the algorithm itself. A warm run
	// (WarmDesign.RunAt) performs the CVS clustering its algorithms share
	// once and charges it to the first one listed.
	Runtime time.Duration `json:"runtime_ns"`
	// STAEvals counts per-gate incremental timing evaluations spent by the
	// run — the work a full re-analysis per move would multiply by the
	// circuit size. The ratio STAEvals/(moves × gates) is the incremental
	// engine's win.
	STAEvals int64 `json:"sta_evals"`
	// CandEvals counts Dscale candidate-cache re-evaluations (zero for the
	// other algorithms); a full per-round rescan would pay roughly
	// gates × rounds. See core.Result.CandEvals.
	CandEvals int64 `json:"cand_evals"`
	// SimTime is the wall clock spent in logic simulation: the final power
	// measurement of a Flow run, zero for a warm run (which reads power from
	// the prepared activity table).
	SimTime time.Duration `json:"sim_ns"`
	// RailGates counts live ordinary gates per rail index (RailGates[i] =
	// gates at rail i of Config.Rails) and LCCross breaks the level
	// converters down per crossed rail pair. Both are populated only for
	// configurations of more than two rails — at the classic two-rail setup
	// Gates/LowGates/LCs already say everything and the wire bytes stay
	// exactly what they were.
	RailGates []int        `json:"rail_gates,omitempty"`
	LCCross   []LCCrossing `json:"lc_crossings,omitempty"`
	// Circuit is the scaled clone, for inspection or BLIF export. It stays
	// local: the JSON encoding skips it, so results decoded from the wire
	// carry a nil Circuit.
	Circuit *netlist.Circuit `json:"-"`
}

// LCCrossing counts the level converters restoring one rail crossing: LCs
// converters whose driver sits at rail index From and whose consumers need
// rail index To (To < From — converters restore swing upward).
type LCCrossing struct {
	From int `json:"from"`
	To   int `json:"to"`
	LCs  int `json:"lcs"`
}

// result builds the FlowResult of one verified algorithm run from the scaled
// circuit ckt under lib and what the run measured: its total power pw, its
// critical-path arrival and its wall clock. Cold and warm runs both build
// their results here, so the fields their bit-identity contract covers are
// derived in one place; SimTime and Circuit are the caller's to set. The
// multi-rail columns stay empty at two rails, where the classic ones already
// say everything.
func (d *Design) result(algo string, ckt *netlist.Circuit, lib *cell.Library, cres *core.Result, pw, arrival float64, runtime time.Duration) *FlowResult {
	lcs := ckt.NumLCs()
	fr := &FlowResult{
		Algorithm:    algo,
		Power:        pw,
		ImprovePct:   (d.OrgPower - pw) / d.OrgPower * 100,
		Gates:        ckt.NumLiveGates() - lcs,
		LowGates:     ckt.NumLowGates(),
		LCs:          lcs,
		Sized:        cres.Sized,
		AreaIncrease: ckt.Area()/d.Circuit.Area() - 1,
		WorstSlack:   d.Tspec - arrival,
		Runtime:      runtime,
		STAEvals:     cres.STAEvals,
		CandEvals:    cres.CandEvals,
	}
	if fr.Gates > 0 {
		fr.LowRatio = float64(fr.LowGates) / float64(fr.Gates)
	}
	if n := len(lib.Rails()); n > 2 {
		fr.RailGates = ckt.RailGateCounts(n)
		for from, row := range ckt.LCCrossingCounts(n) {
			for to, k := range row {
				if k > 0 {
					fr.LCCross = append(fr.LCCross, LCCrossing{From: from, To: to, LCs: k})
				}
			}
		}
	}
	return fr
}

// coreOptions converts the config for internal/core: a run under ctx,
// reporting to obs, over the design's activity table.
func (d *Design) coreOptions(ctx context.Context, obs Observer) core.Options {
	o := core.DefaultOptions()
	o.MaxIter = d.cfg.MaxIter
	o.MaxAreaIncrease = d.cfg.MaxAreaIncrease
	o.Fclk = d.cfg.Fclk
	o.GreedySelect = d.cfg.GreedySelect
	o.GreedySizing = d.cfg.GreedySizing
	o.Ctx = ctx
	o.Observer = coreObserver(d.Name, obs)
	o.Activities = d.act
	return o
}

// runErr wraps a failed run's error with the algorithm and circuit. A
// cancelled or expired context surfaces as exactly ctx.Err(), unwrapped, so
// callers can compare against context.Canceled.
func (d *Design) runErr(algo Algorithm, err error) error {
	if cancelled(err) {
		return err
	}
	return fmt.Errorf("dualvdd: %s on %s: %w", algo, d.Name, err)
}

// coreObserver bridges internal/core progress events onto a flow Observer;
// nil obs yields nil (no observation).
func coreObserver(circuit string, obs Observer) core.Observer {
	if obs == nil {
		return nil
	}
	return func(ce core.Event) {
		switch ce.Kind {
		case core.EventMove:
			obs(EventMove{Circuit: circuit, Algorithm: ce.Algorithm,
				Round: ce.Round, Gate: ce.Gate})
		case core.EventRound:
			obs(EventRoundDone{Circuit: circuit, Algorithm: ce.Algorithm,
				Round: ce.Round, Moves: ce.Moves, LowGates: ce.LowGates,
				Power: ce.Power, STAEvals: ce.STAEvals, WorstArrival: ce.WorstArrival})
		}
	}
}

// RunAlgorithm runs one named algorithm on a clone of the design; the
// pristine Circuit is never touched. It is the cold reference run: the
// algorithm runs on a fresh clone and a fresh engine, and the result is
// verified by a fresh full analysis and measured by a fresh power simulation
// of the scaled clone. A cancelled or expired context aborts the run promptly
// (Dscale within one slack-harvesting round, Gscale within one TCB push, the
// power simulation within one block) and returns ctx.Err().
func (d *Design) RunAlgorithm(ctx context.Context, algo Algorithm) (*FlowResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := d.coreOptions(ctx, d.obs)
	ckt := d.Circuit.Clone()
	start := time.Now() //lint:wallclock-ok timing metric only; never feeds results
	inc, err := sta.NewIncremental(ckt, d.Lib, d.Tspec)
	if err != nil {
		return nil, d.runErr(algo, err)
	}
	// One algorithm's scaled circuit stays in place after core.Run, so the
	// result is verified and measured here rather than in the callback: the
	// engine is dead by the time the final power simulation allocates
	// (holding it through the simulation raised the tables workload's peak
	// RSS by about 2 MB).
	var cres *core.Result
	err = core.Run(inc, []string{string(algo)}, opts, func(_ int, res *core.Result) error {
		cres = res
		return nil
	})
	if err != nil {
		return nil, d.runErr(algo, err)
	}
	elapsed := time.Since(start) //lint:wallclock-ok timing metric only; never feeds results
	// The constraint must hold after every algorithm — verify, don't trust.
	// The fresh analysis must also agree with the engine the algorithm ran
	// on, bit for bit: that engine is all a warm run has to go by.
	t, err := sta.Analyze(ckt, d.Lib, d.Tspec)
	if err != nil {
		return nil, err
	}
	if !t.Meets(1e-6) {
		return nil, fmt.Errorf("dualvdd: %s on %s violated timing: %.4f > %.4f",
			algo, d.Name, t.WorstArrival, d.Tspec)
	}
	if t.WorstArrival != inc.WorstArrival() {
		return nil, fmt.Errorf("dualvdd: %s on %s: engine worst arrival %v, fresh analysis %v",
			algo, d.Name, inc.WorstArrival(), t.WorstArrival)
	}
	simStart := time.Now() //lint:wallclock-ok timing metric only; never feeds results
	pw, _, err := power.EstimateRandom(ctx, ckt, d.Lib, d.cfg.SimWords, d.cfg.Seed, d.cfg.Fclk)
	if err != nil {
		return nil, err
	}
	simTime := time.Since(simStart) //lint:wallclock-ok timing metric only; never feeds results
	fr := d.result(string(algo), ckt, d.Lib, cres, pw, t.WorstArrival, elapsed)
	fr.SimTime, fr.Circuit = simTime, ckt
	d.obs.emit(EventResult{Circuit: d.Name, Result: fr})
	return fr, nil
}

// WriteBLIF exports a mapped (possibly scaled) circuit as .gate-form BLIF
// with ".volt" annotations.
func WriteBLIF(w io.Writer, ckt *netlist.Circuit) error {
	return blif.WriteCircuit(w, ckt)
}
