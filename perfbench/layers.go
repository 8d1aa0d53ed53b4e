package main

import (
	"encoding/json"

	"dualvdd"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. Times are self times and every value is a total per
// pass (a tables suite pass, a sweep pass, a service round), except the
// ratios and trace.overhead_pct. A layer a workload bypasses reads 0.
var perLayer = []layerMetric{
	{"flow.prepare_ms", "ms", "lower"},
	{"flow.prepare_alloc_mb", "MB", "lower"},
	{"mapper.sta_full_analyses", "count", "lower"},
	{"mapper.sta_full_evals", "count", "lower"},
	{"core.cvs_ms", "ms", "lower"},
	{"core.dscale_ms", "ms", "lower"},
	{"core.gscale_ms", "ms", "lower"},
	{"core.cand_evals", "count", "lower"},
	{"sta.inc_evals", "count", "lower"},
	{"flow.run_ms", "ms", "lower"},
	{"flow.run_alloc_mb", "MB", "lower"},
	{"sta.full_analyses", "count", "lower"},
	{"sta.full_evals", "count", "lower"},
	{"sim.ms", "ms", "lower"},
	{"sim.runs", "count", "lower"},
	{"sim.word_evals", "count", "lower"},
	{"warm.prep_ms", "ms", "lower"},
	{"warm.runat_ms", "ms", "lower"},
	{"warm.runat_alloc_mb", "MB", "lower"},
	{"warm.builds", "count", "lower"},
	{"warm.points_per_build", "points", "higher"},
	{"runner.key_us", "us", "lower"},
	{"runner.group_key_us", "us", "lower"},
	{"http.server_ms", "ms", "lower"},
	{"http.hop_ms", "ms", "lower"},
	{"http.round_trips", "count", "lower"},
	{"http.retries", "count", "lower"},
	{"http.resp_bytes", "bytes", "lower"},
	{"store.cas_get_ms", "ms", "lower"},
	{"store.cas_gets", "count", "lower"},
	{"store.cas_hit_ratio", "ratio", "higher"},
	{"store.journal_append_ms", "ms", "lower"},
	{"store.journal_appends", "count", "lower"},
	{"store.cas_put_ms", "ms", "lower"},
	{"store.cas_puts", "count", "lower"},
	{"store.errors", "count", "lower"},
	{"fleet.dispatch_ms", "ms", "lower"},
	{"fleet.dispatches", "count", "lower"},
	{"fleet.redispatches", "count", "lower"},
	{"fleet.health_probes", "count", "lower"},
	{"fleet.worker_cache_hits", "count", "higher"},
	{"local.submit_ms", "ms", "lower"},
	{"local.result_ms", "ms", "lower"},
	{"local.queue_depth", "jobs", "lower"},
	{"local.cache_hits", "count", "higher"},
	{"local.submit_dedups", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// passWork is what one pass's results say about the work done.
type passWork struct {
	candEvals, incEvals int64
	builds, points      int64 // warm designs built, points completed (sweep)
}

func (w *passWork) addResults(res []*dualvdd.FlowResult) {
	for _, r := range res {
		w.candEvals += r.CandEvals
		w.incEvals += r.STAEvals
	}
}

// layersOf assembles the per-layer metrics the flow-level spans, the work
// totals and the process counters give for one traced pass.
func layersOf(st spanStats, c counters, w passWork) map[string]float64 {
	m := map[string]float64{
		"flow.prepare_ms":          st.ms("flow.prepare"),
		"flow.prepare_alloc_mb":    st.mb("flow.prepare"),
		"mapper.sta_full_analyses": float64(st.fa["flow.prepare"] + st.fa["warm.prep"]),
		"mapper.sta_full_evals":    float64(st.fe["flow.prepare"] + st.fe["warm.prep"]),
		"core.cvs_ms":              st.ms("core.CVS"),
		"core.dscale_ms":           st.ms("core.Dscale"),
		"core.gscale_ms":           st.ms("core.Gscale"),
		"core.cand_evals":          float64(w.candEvals),
		"sta.inc_evals":            float64(w.incEvals),
		"flow.run_ms":              st.ms("flow.run"),
		"flow.run_alloc_mb":        st.mb("flow.run"),
		"sta.full_analyses":        float64(c.fullAnalyses),
		"sta.full_evals":           float64(c.fullEvals),
		"sim.ms":                   st.ms("sim"),
		"sim.runs":                 float64(c.simRuns),
		"sim.word_evals":           float64(c.wordEvals),
		"warm.prep_ms":             st.ms("warm.prep"),
		"warm.runat_ms":            st.ms("warm.runat"),
		"warm.runat_alloc_mb":      st.mb("warm.runat"),
		"warm.builds":              float64(w.builds),
		"runner.key_us":            float64(st.self["runner.key"]) / 1e3,
		"runner.group_key_us":      float64(st.self["runner.group_key"]) / 1e3,
	}
	if w.builds > 0 {
		m["warm.points_per_build"] = float64(w.points) / float64(w.builds)
	}
	return m
}

// addStages records the stage durations a FlowResult reports as child spans
// of the call that produced it: the algorithm's Runtime from the call's
// start, and its SimTime. Simulation that ran inside the algorithm (the
// word evaluations beyond the final power estimate over the scaled circuit)
// nests under the algorithm span in proportion; the rest closes the call.
func addStages(tr *tracer, call span, res *dualvdd.FlowResult, simWords int, at int64) int64 {
	if tr == nil {
		return at
	}
	alg := span{ID: tr.nextID.Add(1), Parent: call.ID, Name: "core." + res.Algorithm, Op: call.Op,
		Start: at, End: at + int64(res.Runtime)}
	tr.add(alg)
	if res.SimTime > 0 {
		inner := int64(0)
		final := int64(simWords) * int64(res.Gates+res.LCs)
		if call.WordEvals > final {
			inner = int64(res.SimTime) * (call.WordEvals - final) / call.WordEvals
		}
		if inner > 0 {
			tr.add(span{Parent: alg.ID, Name: "sim", Op: call.Op, Start: alg.Start, End: alg.Start + inner})
		}
		if outer := int64(res.SimTime) - inner; outer > 0 {
			tr.add(span{Parent: call.ID, Name: "sim", Op: call.Op, Start: call.End - outer, End: call.End})
		}
	}
	return alg.End
}

// fingerprint encodes every deterministic field of a run's results: all but
// the wall clocks and the local-only Circuit. Equal fingerprints are
// bit-identical results.
func fingerprint(res []*dualvdd.FlowResult) string {
	cp := make([]dualvdd.FlowResult, len(res))
	for i, r := range res {
		if r != nil {
			cp[i] = *r
			cp[i].Runtime, cp[i].SimTime, cp[i].Circuit = 0, 0, nil
		}
	}
	b, err := json.Marshal(cp)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}
