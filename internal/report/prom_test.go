package report

import (
	"bytes"
	"strings"
	"testing"

	"dualvdd"
)

// goldenMetrics exercises every series: base service counters, warm-prep
// counters, and the fleet-only gauges including per-tenant rejects (with a
// tenant name needing label escaping).
func goldenMetrics() dualvdd.Metrics {
	return dualvdd.Metrics{
		JobsQueued: 2, JobsRunning: 1,
		JobsDone: 40, JobsFailed: 3, JobsCancelled: 1,
		CacheHits: 17, CacheMisses: 23, CacheEntries: 23, CacheBytes: 104857,
		StoreErrors: 1, StoreDegraded: 1, BudgetRejects: 2, SubmitDedups: 5,
		MultiRailJobs: 7,
		PrepBuilds:    3, PrepReuses: 24, PrepGroups: 3,
		STAEvals: 123456, CandEvals: 7890,
		WorkersLive: 2, WorkersDead: 1, PointsInFlight: 5,
		Redispatches: 4, QuarantinedJobs: 1, AdmissionRejects: 6,
		TenantRejects: map[string]int64{"alice": 4, `bob"s`: 2},
	}
}

// TestGoldenMetricsProm pins the Prometheus text exposition of /metricsz —
// dashboards are written against these exact series names.
func TestGoldenMetricsProm(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, goldenMetrics()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metricsprom", buf.Bytes())
}

// TestGoldenMetricsJSON pins the JSON encoding of /metricsz alongside the
// Prometheus one: the two encodings of one snapshot, both wire contracts.
func TestGoldenMetricsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenMetrics()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metricsjson", buf.Bytes())
}

// TestPromOmitsFleetSeriesForLocal pins the skip-zero rule: a plain Local's
// exposition carries no fleet or warm series, mirroring JSON omitempty.
func TestPromOmitsFleetSeriesForLocal(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, dualvdd.Metrics{JobsDone: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"fleet", "prep", "tenant"} {
		if strings.Contains(out, banned) {
			t.Fatalf("zero %s series leaked into a local exposition:\n%s", banned, out)
		}
	}
	if !strings.Contains(out, "dualvdd_jobs_done_total 1\n") {
		t.Fatalf("missing base series:\n%s", out)
	}
}
