package main

import (
	"context"
	"testing"

	"dualvdd"
)

// TestErrorLine pins the one "dualvdd: " prefix of a fatal error line: an
// error from the library already carries it, any other error gets it.
func TestErrorLine(t *testing.T) {
	ctx := context.Background()
	_, cfgErr := dualvdd.New(dualvdd.WithVoltages(5.0, 6.0)).PrepareBenchmark(ctx, "x2")
	_, benchErr := dualvdd.New().PrepareBenchmark(ctx, "nosuch")
	cases := []struct {
		err  error
		want string
	}{
		{cfgErr, "dualvdd: invalid config: vlow: supply 6 must sit strictly below the rail above it (5)"},
		{benchErr, `dualvdd: mcnc: unknown benchmark "nosuch"`},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("no error for the case that should print %q", tc.want)
		}
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
