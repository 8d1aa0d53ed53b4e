package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dualvdd"
)

// ContentTypeProm is the Prometheus text exposition media type served by
// /metricsz?format=prom.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// promMetric is one series of the exposition: name, type, help, and a fixed
// accessor into the Metrics snapshot. The table is ordered — the rendering is
// byte-stable and pinned by a golden test, because dashboards and scrape
// configs are written against it.
type promMetric struct {
	name, typ, help string
	value           func(m dualvdd.Metrics) int64
	// skipZero omits the series when zero: fleet-only gauges stay out of a
	// plain Local's exposition, mirroring their JSON omitempty tags.
	skipZero bool
}

var promMetrics = []promMetric{
	{"dualvdd_jobs_queued", "gauge", "Jobs waiting for a worker.",
		func(m dualvdd.Metrics) int64 { return int64(m.JobsQueued) }, false},
	{"dualvdd_jobs_running", "gauge", "Jobs currently executing.",
		func(m dualvdd.Metrics) int64 { return int64(m.JobsRunning) }, false},
	{"dualvdd_jobs_done_total", "counter", "Jobs finished successfully, including cache hits.",
		func(m dualvdd.Metrics) int64 { return m.JobsDone }, false},
	{"dualvdd_jobs_failed_total", "counter", "Jobs finished in failure.",
		func(m dualvdd.Metrics) int64 { return m.JobsFailed }, false},
	{"dualvdd_jobs_cancelled_total", "counter", "Jobs cancelled before completion.",
		func(m dualvdd.Metrics) int64 { return m.JobsCancelled }, false},
	{"dualvdd_cache_hits_total", "counter", "Submit-time content-cache hits.",
		func(m dualvdd.Metrics) int64 { return m.CacheHits }, false},
	{"dualvdd_cache_misses_total", "counter", "Submit-time content-cache misses.",
		func(m dualvdd.Metrics) int64 { return m.CacheMisses }, false},
	{"dualvdd_cache_entries", "gauge", "Resident result-cache entries.",
		func(m dualvdd.Metrics) int64 { return int64(m.CacheEntries) }, false},
	{"dualvdd_cache_bytes", "gauge", "Result-cache storage footprint in bytes (disk CAS; 0 in memory).",
		func(m dualvdd.Metrics) int64 { return m.CacheBytes }, false},
	{"dualvdd_store_errors_total", "counter", "Failed writes to the durable stores.",
		func(m dualvdd.Metrics) int64 { return m.StoreErrors }, false},
	{"dualvdd_store_degraded", "gauge", "1 while the result cache serves from its in-memory fallback after persistent disk errors.",
		func(m dualvdd.Metrics) int64 { return int64(m.StoreDegraded) }, true},
	{"dualvdd_budget_rejects_total", "counter", "Submissions refused at admission with an exhausted deadline budget.",
		func(m dualvdd.Metrics) int64 { return m.BudgetRejects }, true},
	{"dualvdd_submit_dedups_total", "counter", "Resubmissions absorbed by an in-flight job with the same content address.",
		func(m dualvdd.Metrics) int64 { return m.SubmitDedups }, true},
	{"dualvdd_multi_rail_jobs_total", "counter", "Accepted jobs configured with three or more supply rails.",
		func(m dualvdd.Metrics) int64 { return m.MultiRailJobs }, true},
	{"dualvdd_prep_builds_total", "counter", "Warm prepared-state constructions.",
		func(m dualvdd.Metrics) int64 { return m.PrepBuilds }, true},
	{"dualvdd_prep_reuses_total", "counter", "Runs that reused a warm prepared state.",
		func(m dualvdd.Metrics) int64 { return m.PrepReuses }, true},
	{"dualvdd_prep_groups", "gauge", "Resident warm prepared-state groups.",
		func(m dualvdd.Metrics) int64 { return int64(m.PrepGroups) }, true},
	{"dualvdd_sta_evals_total", "counter", "Incremental timing evaluations spent by completed runs.",
		func(m dualvdd.Metrics) int64 { return m.STAEvals }, false},
	{"dualvdd_cand_evals_total", "counter", "Dscale candidate re-evaluations spent by completed runs.",
		func(m dualvdd.Metrics) int64 { return m.CandEvals }, false},
	{"dualvdd_sim_ns_total", "counter", "Logic-simulation wall clock spent by completed runs, in nanoseconds.",
		func(m dualvdd.Metrics) int64 { return m.SimNs }, false},
	{"dualvdd_fleet_workers_live", "gauge", "Registered fleet workers currently healthy.",
		func(m dualvdd.Metrics) int64 { return int64(m.WorkersLive) }, true},
	{"dualvdd_fleet_workers_dead", "gauge", "Registered fleet workers currently failed.",
		func(m dualvdd.Metrics) int64 { return int64(m.WorkersDead) }, true},
	{"dualvdd_fleet_points_in_flight", "gauge", "Accepted fleet jobs not yet terminal.",
		func(m dualvdd.Metrics) int64 { return int64(m.PointsInFlight) }, true},
	{"dualvdd_fleet_redispatches_total", "counter", "Jobs moved off a dead worker onto a live one.",
		func(m dualvdd.Metrics) int64 { return m.Redispatches }, true},
	{"dualvdd_fleet_quarantined_jobs_total", "counter", "Jobs failed as poison after exhausting their re-dispatch budget.",
		func(m dualvdd.Metrics) int64 { return m.QuarantinedJobs }, true},
	{"dualvdd_fleet_admission_rejects_total", "counter", "Submissions refused at admission (quota or rate limit).",
		func(m dualvdd.Metrics) int64 { return m.AdmissionRejects }, true},
}

// WriteMetricsProm renders the counters snapshot in the Prometheus text
// exposition format (version 0.0.4). The output is deterministic: series in
// the fixed table order above, per-tenant reject series sorted by tenant.
// Those series are bounded like Metrics.TenantRejects: at most
// dualvdd.TenantRejectTags tenant labels plus one labelled
// dualvdd.TenantRejectsOther for the rest, however many tags clients send.
// It is the second pinned encoding of /metricsz, next to the JSON one.
func WriteMetricsProm(w io.Writer, m dualvdd.Metrics) error {
	var b strings.Builder
	for _, pm := range promMetrics {
		v := pm.value(m)
		if pm.skipZero && v == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", pm.name, pm.help, pm.name, pm.typ, pm.name, v)
	}
	if len(m.TenantRejects) > 0 {
		const name = "dualvdd_fleet_tenant_admission_rejects_total"
		fmt.Fprintf(&b, "# HELP %s Admission rejects per tenant.\n# TYPE %s counter\n", name, name)
		tenants := make([]string, 0, len(m.TenantRejects))
		for t := range m.TenantRejects {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			fmt.Fprintf(&b, "%s{tenant=\"%s\"} %d\n", name, promLabel(t), m.TenantRejects[t])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabel escapes a label value per the exposition format (backslash,
// quote, newline).
func promLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
