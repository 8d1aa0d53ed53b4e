package dualvdd_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualvdd"
	"dualvdd/internal/report"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// keyInlineModels are the inline-BLIF jobs of the key golden: a two-input
// cover, the same cover with its cubes swapped (cube order is significant),
// and a small multi-level network.
var keyInlineModels = []struct {
	name, model string
}{
	{"or2", ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n10 1\n.end\n"},
	{"or2-swapped", ".model t\n.inputs a b\n.outputs f\n.names a b f\n10 1\n11 1\n.end\n"},
	{"c17", ".model c17\n.inputs a b c d e\n.outputs y z\n" +
		".names a c n1\n11 0\n.names c d n2\n11 0\n.names b n2 n3\n11 0\n" +
		".names n2 e n4\n11 0\n.names n1 n3 y\n11 0\n.names n3 n4 z\n11 0\n.end\n"},
}

// TestJobKeyGolden pins the absolute content address (Job.Key) and placement
// address (Job.GroupKey) of every benchmark under four configurations plus
// a few inline models. Other tests only compare keys with each other; a key
// that silently changed would orphan every result in a disk CAS, so the
// bytes themselves are pinned here. Regenerate with -update only for a
// deliberate, documented key change.
func TestJobKeyGolden(t *testing.T) {
	configs := []struct {
		name string
		opts []dualvdd.Option
	}{
		{"default", nil},
		{"rails3", []dualvdd.Option{dualvdd.WithRails(5.0, 4.3, 3.6)}},
		{"gscale", []dualvdd.Option{dualvdd.WithAlgorithms(dualvdd.AlgoGscale)}},
		{"slack1.1-words64", []dualvdd.Option{dualvdd.WithSlackFactor(1.1), dualvdd.WithSimWords(64)}},
	}
	var b strings.Builder
	line := func(label string, job dualvdd.Job) {
		key, err := job.Key()
		if err != nil {
			t.Fatalf("%s: key: %v", label, err)
		}
		group, err := job.GroupKey()
		if err != nil {
			t.Fatalf("%s: group key: %v", label, err)
		}
		fmt.Fprintf(&b, "%s key=%s group=%s\n", label, key, group)
	}
	for _, name := range dualvdd.Benchmarks() {
		for _, c := range configs {
			line(name+" "+c.name, dualvdd.BenchmarkJob(name, c.opts...))
		}
	}
	for _, m := range keyInlineModels {
		line("blif:"+m.name+" default", dualvdd.BLIFJob(m.model))
	}
	// The multi-level model also under the three-rail table and the Gscale
	// subset, so inline jobs cover a non-default config too.
	c17 := keyInlineModels[len(keyInlineModels)-1]
	line("blif:"+c17.name+" rails3", dualvdd.BLIFJob(c17.model, configs[1].opts...))
	line("blif:"+c17.name+" gscale", dualvdd.BLIFJob(c17.model, configs[2].opts...))

	checkGolden(t, "keys.golden", b.String())
}

// TestRetiredSimWorkerFieldDecodes pins the wire compatibility of the retired
// sim_workers field. Configs and job requests written while it existed
// decode as if it were absent, whatever its value: -1, which validation used
// to reject, included. They pass Validate, re-encode without the field, and
// keep the content and placement addresses keys.golden pins.
func TestRetiredSimWorkerFieldDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "keys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if label, addrs, ok := strings.Cut(line, " key="); ok {
			golden[label] = "key=" + addrs
		}
	}
	for _, tc := range []struct{ label, config string }{
		{"x2 default", `{"vhigh":5,"vlow":4.3,"slack_factor":1.2,"max_area_increase":0.1,"max_iter":10,"sim_words":256,%s"seed":1,"fclk_hz":20000000}`},
		{"x2 slack1.1-words64", `{"vhigh":5,"vlow":4.3,"slack_factor":1.1,"max_area_increase":0.1,"max_iter":10,"sim_words":64,%s"seed":1,"fclk_hz":20000000}`},
	} {
		for _, workers := range []int{3, -1} {
			old := fmt.Sprintf(tc.config, fmt.Sprintf(`"sim_workers":%d,`, workers))
			var cfg dualvdd.Config
			if err := json.Unmarshal([]byte(old), &cfg); err != nil {
				t.Fatalf("%s: decoding %s: %v", tc.label, old, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %s does not validate: %v", tc.label, old, err)
			}
			if enc, err := json.Marshal(cfg); err != nil || string(enc) != fmt.Sprintf(tc.config, "") {
				t.Fatalf("%s: %s re-encodes as %s (err %v)", tc.label, old, enc, err)
			}
			var req report.JobRequest
			if err := json.Unmarshal([]byte(`{"benchmark":"x2","config":`+old+`}`), &req); err != nil {
				t.Fatalf("%s: decoding the job request: %v", tc.label, err)
			}
			job := req.Job()
			key, err := job.Key()
			if err != nil {
				t.Fatalf("%s: key: %v", tc.label, err)
			}
			group, err := job.GroupKey()
			if err != nil {
				t.Fatalf("%s: group key: %v", tc.label, err)
			}
			if got := fmt.Sprintf("key=%s group=%s", key, group); got != golden[tc.label] {
				t.Errorf("%s with sim_workers %d:\n got  %s\n want %s", tc.label, workers, got, golden[tc.label])
			}
		}
	}
}

// checkGolden compares got with testdata/<name> line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the code produced %d", name, len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s drifted:\n got  %s\n want %s", name, gotLines[i], wantLines[i])
		}
	}
}
