package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRows is a fixed fixture spanning the rendering corner cases: a row
// with paper data, a zero-CVS row, and a circuit unknown to the paper table
// (renders zero paper columns).
func goldenRows() []Row {
	return []Row{
		{Name: "C880", OrgPwrUW: 80.12, CVSPct: 15.25, DscalePct: 17.5, GscalePct: 22.75,
			CPUSec: 1.5, CVSSec: 0.01, DscaleSec: 0.25,
			OrgGates: 157, CVSLow: 105, CVSRatio: 0.67, DscaleLow: 111, DscaleRatio: 0.71,
			GscaleLow: 148, GscRatio: 0.94, Sized: 18, AreaInc: 0.095,
			DscaleEvals: 1365, GscaleEvals: 3608},
		{Name: "mux", OrgPwrUW: 18.5, CVSPct: 0, DscalePct: 0, GscalePct: 12,
			OrgGates: 46, GscRatio: 0.5, Sized: 4, AreaInc: 0.03},
		{Name: "notapaper", OrgPwrUW: 5, CVSPct: 2, DscalePct: 2.5, GscalePct: 6,
			OrgGates: 12, CVSLow: 2, CVSRatio: 0.17, DscaleLow: 3, DscaleRatio: 0.25,
			GscaleLow: 7, GscRatio: 0.58, Sized: 1, AreaInc: 0.01},
	}
}

// checkGolden compares rendered output against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/report -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden; if the change is intended re-run with -update.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1(&buf, goldenRows()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", buf.Bytes())
}

func TestGoldenTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable2(&buf, goldenRows()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2", buf.Bytes())
}

func TestGoldenMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, goldenRows()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "markdown", buf.Bytes())
}
