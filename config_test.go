package dualvdd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dualvdd"
)

// TestConfigValidate is the table over the degenerate configurations that
// used to slip through to NaN or meaningless power numbers. Every failure
// wraps ErrInvalidConfig and follows the one documented shape
// "dualvdd: invalid config: <field>: <reason>".
func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*dualvdd.Config)) dualvdd.Config {
		c := dualvdd.DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   dualvdd.Config
		field string // "" = valid
	}{
		{"paper defaults", dualvdd.DefaultConfig(), ""},
		{"tight but legal", mutate(func(c *dualvdd.Config) { c.SlackFactor = 1.0 }), ""},
		{"no area budget", mutate(func(c *dualvdd.Config) { c.MaxAreaIncrease = 0 }), ""},
		{"zero max iter", mutate(func(c *dualvdd.Config) { c.MaxIter = 0 }), ""},
		{"one sim word", mutate(func(c *dualvdd.Config) { c.SimWords = 1 }), ""},
		{"most sim words", mutate(func(c *dualvdd.Config) { c.SimWords = dualvdd.MaxSimWords }), ""},

		{"zero config", dualvdd.Config{}, "rails"},
		{"vddl equals vddh", mutate(func(c *dualvdd.Config) { c.Rails[1] = c.Rails[0] }), "vlow"},
		{"vddl above vddh", mutate(func(c *dualvdd.Config) { c.Rails[1] = c.Rails[0] + 0.1 }), "vlow"},
		{"zero vddl", mutate(func(c *dualvdd.Config) { c.Rails[1] = 0 }), "vlow"},
		{"negative vddl", mutate(func(c *dualvdd.Config) { c.Rails[1] = -4.3 }), "vlow"},
		{"zero vddh", mutate(func(c *dualvdd.Config) { c.Rails[0] = 0 }), "vhigh"},
		{"negative vddh", mutate(func(c *dualvdd.Config) { c.Rails[0] = -5 }), "vhigh"},
		{"NaN vddh", mutate(func(c *dualvdd.Config) { c.Rails[0] = math.NaN() }), "vhigh"},
		{"infinite vddl", mutate(func(c *dualvdd.Config) { c.Rails[1] = math.Inf(1) }), "vlow"},
		{"sub-1 slack factor", mutate(func(c *dualvdd.Config) { c.SlackFactor = 0.9 }), "slack_factor"},
		{"NaN slack factor", mutate(func(c *dualvdd.Config) { c.SlackFactor = math.NaN() }), "slack_factor"},
		{"negative area budget", mutate(func(c *dualvdd.Config) { c.MaxAreaIncrease = -0.1 }), "max_area_increase"},
		{"negative max iter", mutate(func(c *dualvdd.Config) { c.MaxIter = -1 }), "max_iter"},
		{"zero sim words", mutate(func(c *dualvdd.Config) { c.SimWords = 0 }), "sim_words"},
		{"negative sim words", mutate(func(c *dualvdd.Config) { c.SimWords = -8 }), "sim_words"},
		{"too many sim words", mutate(func(c *dualvdd.Config) { c.SimWords = dualvdd.MaxSimWords + 1 }), "sim_words"},
		{"zero clock", mutate(func(c *dualvdd.Config) { c.Fclk = 0 }), "fclk_hz"},
		{"negative clock", mutate(func(c *dualvdd.Config) { c.Fclk = -1e6 }), "fclk_hz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("degenerate config accepted: %+v", tc.cfg)
			}
			if !errors.Is(err, dualvdd.ErrInvalidConfig) {
				t.Fatalf("error %v does not wrap ErrInvalidConfig", err)
			}
			if !strings.HasPrefix(err.Error(), "dualvdd: invalid config: "+tc.field+": ") {
				t.Fatalf("error %q does not follow the documented shape for field %s", err, tc.field)
			}
		})
	}
}

// TestDegenerateConfigNeverReachesNaN pins the fix the validation exists
// for: a degenerate voltage pair is rejected at every entry point — Prepare,
// Job submission, sweep expansion — instead of flowing into the cell library
// where it would surface as NaN delay derates and power ratios.
func TestDegenerateConfigNeverReachesNaN(t *testing.T) {
	ctx := context.Background()
	bad := dualvdd.DefaultConfig()
	bad.Rails = []float64{0, 5.0} // zero high rail: 1/Vhigh² is +Inf

	flow := dualvdd.New(dualvdd.FromConfig(bad))
	if _, err := flow.PrepareBenchmark(ctx, "x2"); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("Flow.PrepareBenchmark returned %v, want ErrInvalidConfig", err)
	}

	l := dualvdd.NewLocal()
	defer mustClose(t, l)
	job := dualvdd.BenchmarkJob("x2")
	job.Config = bad
	if _, err := l.Submit(ctx, job); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("Submit returned %v, want ErrInvalidConfig", err)
	}

	s := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks("x2"), Base: bad}
	if _, err := s.Points(); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("sweep expansion returned %v, want ErrInvalidConfig", err)
	}
}

// TestConfigJSONGolden pins the exact wire bytes of Config, which Job.Key and
// Job.GroupKey hash: the rail list goes out as the "vhigh"/"vlow" pair it was
// before the list existed, plus "rails" only past two rails. Each line also
// decodes back to the Config it came from, and JSON null leaves a Config
// untouched.
func TestConfigJSONGolden(t *testing.T) {
	configs := []struct {
		name string
		opts []dualvdd.Option
	}{
		{"default", nil},
		{"rails3", []dualvdd.Option{dualvdd.WithRails(5.0, 4.3, 3.6)}},
		{"greedy", []dualvdd.Option{dualvdd.WithGreedySelect(true), dualvdd.WithGreedySizing(true)}},
	}
	var b strings.Builder
	for _, c := range configs {
		cfg := dualvdd.New(c.opts...).Config()
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", c.name, enc)
		var back dualvdd.Config
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: decoding %s: %v", c.name, enc, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s: %s decodes to %+v, want %+v", c.name, enc, back, cfg)
		}
	}
	checkGolden(t, "config.golden", b.String())

	cfg := dualvdd.DefaultConfig()
	if err := json.Unmarshal([]byte("null"), &cfg); err != nil || !reflect.DeepEqual(cfg, dualvdd.DefaultConfig()) {
		t.Fatalf("null changed the Config to %+v (err %v)", cfg, err)
	}
}
