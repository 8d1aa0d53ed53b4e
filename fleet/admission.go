package fleet

import (
	"fmt"
	"sync"
	"time"

	"dualvdd"
)

// Admission errors. Both wrap dualvdd.ErrQueueFull: over the HTTP surface
// they map to 429, and a client that already handles a full Local queue
// handles a fleet rejection identically — retry later is the remedy for
// both.
var (
	// ErrRateLimited reports a tenant submitting faster than its token
	// bucket refills.
	ErrRateLimited = fmt.Errorf("fleet: tenant rate limited: %w", dualvdd.ErrQueueFull)
	// ErrQuotaExceeded reports a tenant at its in-flight job quota.
	ErrQuotaExceeded = fmt.Errorf("fleet: tenant quota exceeded: %w", dualvdd.ErrQueueFull)
)

// admission enforces the coordinator's per-tenant policy at Submit time:
// a token bucket bounds the sustained submission rate, and an in-flight
// quota bounds how much of the fleet one tenant may occupy at once. The
// untagged tenant "" is a tenant like any other — per-tenant state is
// keyed by the dualvdd.WithTenant tag.
//
// A tenant's state is dropped once it is indistinguishable from a fresh one
// (see idle), so a tag a client sends once costs nothing after its job ends.
type admission struct {
	rate     float64 // tokens per second; <= 0 disables rate limiting
	burst    float64 // bucket capacity
	inFlight int     // max concurrent jobs per tenant; <= 0 disables
	now      func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
	swept   time.Time // when admit last dropped the idle tenants
}

// tenantState is one tenant's bucket and occupancy.
type tenantState struct {
	tokens   float64
	last     time.Time
	inFlight int
}

// newAdmission builds the policy; a nil clock uses time.Now.
func newAdmission(rate float64, burst float64, inFlight int, now func() time.Time) *admission {
	if now == nil {
		now = time.Now //lint:wallclock-ok this IS the injectable clock seam; tests swap it
	}
	if burst < 1 && rate > 0 {
		burst = 1
	}
	return &admission{
		rate: rate, burst: burst, inFlight: inFlight,
		now: now, tenants: make(map[string]*tenantState), swept: now(),
	}
}

// idle reports whether ts is indistinguishable at now from a fresh tenant:
// no job in flight and, under rate limiting, a bucket refilled to burst. A
// partly spent bucket is never idle — dropping it would refill it early.
func (a *admission) idle(ts *tenantState, now time.Time) bool {
	return ts.inFlight == 0 && (a.rate <= 0 || ts.tokens+now.Sub(ts.last).Seconds()*a.rate >= a.burst)
}

// admit charges one submission to the tenant, or refuses it. An admitted
// submission holds one in-flight slot until release. Under rate limiting it
// first drops the idle tenants, at most once per time an empty bucket takes
// to refill, so a tenant left with a partly spent bucket is gone within two
// such periods of its last submission.
func (a *admission) admit(tenant string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	if a.rate > 0 && now.Sub(a.swept).Seconds()*a.rate >= a.burst {
		//lint:nondeterministic-ok each tenant is dropped or kept on its own state; order is irrelevant
		for name, ts := range a.tenants {
			if a.idle(ts, now) {
				delete(a.tenants, name)
			}
		}
		a.swept = now
	}
	ts := a.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: a.burst, last: now}
		a.tenants[tenant] = ts
	}
	if a.inFlight > 0 && ts.inFlight >= a.inFlight {
		return ErrQuotaExceeded
	}
	if a.rate > 0 {
		ts.tokens += now.Sub(ts.last).Seconds() * a.rate
		if ts.tokens > a.burst {
			ts.tokens = a.burst
		}
		ts.last = now
		if ts.tokens < 1 {
			return ErrRateLimited
		}
		ts.tokens--
	}
	ts.inFlight++
	return nil
}

// release returns the tenant's in-flight slot once its job is terminal, and
// drops the tenant's state if that leaves it idle.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[tenant]
	if ts == nil || ts.inFlight == 0 {
		return
	}
	ts.inFlight--
	if a.idle(ts, a.now()) {
		delete(a.tenants, tenant)
	}
}
