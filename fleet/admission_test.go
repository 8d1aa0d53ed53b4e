package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dualvdd"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestAdmissionTokenBucket: burst spends, time refills, refill caps at
// burst.
func TestAdmissionTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAdmission(2.0, 3, 0, clk.now) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if err := a.admit("alice"); err != nil {
			t.Fatalf("burst submission %d rejected: %v", i, err)
		}
		a.release("alice")
	}
	if err := a.admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("spent bucket admitted: %v", err)
	}
	// Half a second refills one token at 2/s.
	clk.advance(500 * time.Millisecond)
	if err := a.admit("alice"); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	}
	a.release("alice")
	// A long idle stretch refills to burst, no further.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if err := a.admit("alice"); err != nil {
			t.Fatalf("post-idle submission %d rejected: %v", i, err)
		}
		a.release("alice")
	}
	if err := a.admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatal("refill exceeded the burst cap")
	}
}

// TestAdmissionDropsIdleTenants: a tenant's state goes once it is
// indistinguishable from a fresh one, so one-shot tags leave nothing behind,
// and a partly spent bucket stays until it has refilled.
func TestAdmissionDropsIdleTenants(t *testing.T) {
	const tenants = 10000
	// Without rate limiting a tenant is idle as soon as its last job ends.
	a := newAdmission(0, 0, 2, nil)
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		if err := a.admit(name); err != nil {
			t.Fatal(err)
		}
		a.release(name)
	}
	if n := len(a.tenants); n != 0 {
		t.Fatalf("%d idle tenants kept without rate limiting", n)
	}

	// With it, a tenant is idle once its bucket has refilled as well.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a = newAdmission(2.0, 3, 0, clk.now) // an empty bucket refills in 1.5 s
	held := make(map[string]bool)
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		if err := a.admit(name); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			held[name] = true
		} else {
			a.release(name)
		}
	}
	if n := len(a.tenants); n != tenants {
		t.Fatalf("%d of %d tenants kept while their buckets are partly spent", n, tenants)
	}
	clk.advance(1500 * time.Millisecond)
	if err := a.admit("late"); err != nil {
		t.Fatal(err)
	}
	held["late"] = true
	if len(a.tenants) != len(held) {
		t.Fatalf("%d tenants kept past the refill time, %d have jobs in flight", len(a.tenants), len(held))
	}
	for name := range a.tenants {
		if !held[name] {
			t.Fatalf("idle tenant %s kept past the refill time", name)
		}
	}

	// A bucket spent between two sweeps survives the second one: dropping it
	// would hand the tenant a full bucket.
	clk.advance(time.Second)
	for range 3 {
		if err := a.admit("spent"); err != nil {
			t.Fatal(err)
		}
		a.release("spent")
	}
	clk.advance(500 * time.Millisecond) // a sweep is due; the bucket holds 1 token
	if err := a.admit("probe"); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("spent"); err != nil {
		t.Fatalf("refilled token rejected: %v", err)
	}
	a.release("spent")
	if err := a.admit("spent"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("a sweep refilled a partly spent bucket: %v", err)
	}
}

// TestAdmissionQuota: the in-flight bound holds until release, per tenant.
func TestAdmissionQuota(t *testing.T) {
	a := newAdmission(0, 0, 2, nil) // no rate limit, 2 in flight

	if err := a.admit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("alice"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admitted: %v", err)
	}
	// Tenants are isolated.
	if err := a.admit("bob"); err != nil {
		t.Fatalf("bob rejected by alice's quota: %v", err)
	}
	a.release("alice")
	if err := a.admit("alice"); err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	}
}

// TestAdmissionErrorsWrapQueueFull: both refusals map onto the Runner
// sentinel, so they become 429 over the wire and callers handle them like a
// full Local queue.
func TestAdmissionErrorsWrapQueueFull(t *testing.T) {
	for _, err := range []error{ErrRateLimited, ErrQuotaExceeded} {
		if !errors.Is(err, dualvdd.ErrQueueFull) {
			t.Fatalf("%v does not wrap ErrQueueFull", err)
		}
	}
}

// TestAdmissionDisabled: the zero policy admits everything.
func TestAdmissionDisabled(t *testing.T) {
	a := newAdmission(0, 0, 0, nil)
	for i := 0; i < 100; i++ {
		if err := a.admit(""); err != nil {
			t.Fatalf("disabled policy rejected submission %d: %v", i, err)
		}
	}
}
