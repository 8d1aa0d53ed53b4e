package report

import (
	"fmt"
	"io"
	"strings"

	"dualvdd"
)

// Row is one circuit's measured results across both tables.
type Row struct {
	Name     string
	OrgPwrUW float64
	// Percent improvements over the original power.
	CVSPct, DscalePct, GscalePct float64
	// Gscale wall-clock seconds (the paper's CPU column). A warm run charges
	// the CVS clustering its algorithms share to the first one listed, so in
	// the paper's order this excludes the clustering a cold Gscale run
	// includes.
	CPUSec float64
	// Per-algorithm wall-clock seconds, so scaling-loop speedups are
	// visible per table row in benchmark output.
	CVSSec, DscaleSec float64
	// Incremental-STA gate evaluations spent by Dscale and Gscale.
	DscaleEvals, GscaleEvals int64
	// DscaleCandEvals counts Dscale candidate-cache re-evaluations; the
	// full-rescan equivalent is OrgGates × Dscale rounds.
	DscaleCandEvals int64
	// Profiles (Table 2).
	OrgGates                        int
	CVSLow, DscaleLow, GscaleLow    int
	CVSRatio, DscaleRatio, GscRatio float64
	Sized                           int
	AreaInc                         float64
}

// TableRows assembles one row per sweep point, in point order. Tables 1 and
// 2 are a Sweep at the paper's configuration with CVS, Dscale and Gscale on
// every point; a point without a status, a design summary or any of the
// three results cannot fill a row and is an error.
func TableRows(results []dualvdd.SweepPointResult) ([]Row, error) {
	rows := make([]Row, 0, len(results))
	for _, pr := range results {
		st := pr.Status
		if st == nil || st.Design == nil {
			return nil, fmt.Errorf("report: sweep point %d has no prepared design", pr.Point.Index)
		}
		byAlgo := map[dualvdd.Algorithm]*dualvdd.FlowResult{}
		for _, fr := range st.Results {
			if fr != nil {
				byAlgo[dualvdd.Algorithm(fr.Algorithm)] = fr
			}
		}
		cvs, ds, gs := byAlgo[dualvdd.AlgoCVS], byAlgo[dualvdd.AlgoDscale], byAlgo[dualvdd.AlgoGscale]
		if cvs == nil || ds == nil || gs == nil {
			return nil, fmt.Errorf("report: sweep point %d (%s) lacks a CVS, Dscale or Gscale result", pr.Point.Index, st.Design.Name)
		}
		rows = append(rows, Row{
			Name:            st.Design.Name,
			OrgPwrUW:        st.Design.OrgPower * 1e6,
			CVSPct:          cvs.ImprovePct,
			DscalePct:       ds.ImprovePct,
			GscalePct:       gs.ImprovePct,
			CPUSec:          gs.Runtime.Seconds(),
			CVSSec:          cvs.Runtime.Seconds(),
			DscaleSec:       ds.Runtime.Seconds(),
			DscaleEvals:     ds.STAEvals,
			GscaleEvals:     gs.STAEvals,
			DscaleCandEvals: ds.CandEvals,
			OrgGates:        cvs.Gates,
			CVSLow:          cvs.LowGates,
			CVSRatio:        cvs.LowRatio,
			DscaleLow:       ds.LowGates,
			DscaleRatio:     ds.LowRatio,
			GscaleLow:       gs.LowGates,
			GscRatio:        gs.LowRatio,
			Sized:           gs.Sized,
			AreaInc:         gs.AreaIncrease,
		})
	}
	return rows, nil
}

// Averages computes the column averages the paper reports.
func Averages(rows []Row) Row {
	var avg Row
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.CVSPct += r.CVSPct
		avg.DscalePct += r.DscalePct
		avg.GscalePct += r.GscalePct
		avg.CVSRatio += r.CVSRatio
		avg.DscaleRatio += r.DscaleRatio
		avg.GscRatio += r.GscRatio
		avg.AreaInc += r.AreaInc
	}
	n := float64(len(rows))
	avg.Name = "average"
	avg.CVSPct /= n
	avg.DscalePct /= n
	avg.GscalePct /= n
	avg.CVSRatio /= n
	avg.DscaleRatio /= n
	avg.GscRatio /= n
	avg.AreaInc /= n
	return avg
}

// WriteTable1 renders the measured results in the layout of the paper's
// Table 1 ("Improvement over the Original Power (%)"), with the published
// numbers alongside for comparison.
func WriteTable1(w io.Writer, rows []Row) error {
	ew := &errW{w: w}
	ew.p("Table 1: Improvement over the Original Power (%%)  [measured | paper]\n")
	ew.p("%-10s %12s %21s %21s %21s %9s\n",
		"circuit", "OrgPwr(uW)", "CVS", "Dscale", "Gscale", "CPU(s)")
	for _, r := range rows {
		p, _ := PaperByName(r.Name)
		ew.p("%-10s %6.2f|%7.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %8.2f %9.2f\n",
			r.Name, r.OrgPwrUW, p.OrgPwrUW,
			r.CVSPct, p.CVSPct, r.DscalePct, p.DscalePct, r.GscalePct, p.GscalePct,
			r.CPUSec)
	}
	avg := Averages(rows)
	ew.p("%-10s %14s %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
		"average", "", avg.CVSPct, PaperAverages.CVSPct,
		avg.DscalePct, PaperAverages.DscalePct,
		avg.GscalePct, PaperAverages.GscalePct)
	return ew.err
}

// WriteTable2 renders the measured profiles in the layout of the paper's
// Table 2 ("Profiles").
func WriteTable2(w io.Writer, rows []Row) error {
	ew := &errW{w: w}
	ew.p("Table 2: Profiles  [measured | paper ratio]\n")
	ew.p("%-10s %5s | %5s %5s %5s | %5s %5s %5s | %5s %5s %5s | %5s %7s\n",
		"circuit", "Org",
		"CVS#", "r", "pr", "Ds#", "r", "pr", "Gs#", "r", "pr", "sized", "areaInc")
	for _, r := range rows {
		p, _ := PaperByName(r.Name)
		ew.p("%-10s %5d | %5d %5.2f %5.2f | %5d %5.2f %5.2f | %5d %5.2f %5.2f | %5d %7.2f\n",
			r.Name, r.OrgGates,
			r.CVSLow, r.CVSRatio, p.CVSRatio,
			r.DscaleLow, r.DscaleRatio, p.DscaleRatio,
			r.GscaleLow, r.GscRatio, p.GscaleRatio,
			r.Sized, r.AreaInc)
	}
	avg := Averages(rows)
	ew.p("%-10s %5s | %11.2f %5.2f | %11.2f %5.2f | %11.2f %5.2f | %5s %7.2f\n",
		"average", "",
		avg.CVSRatio, PaperAverages.CVSRatio,
		avg.DscaleRatio, PaperAverages.DscaleRatio,
		avg.GscRatio, PaperAverages.GscaleRatio,
		"", avg.AreaInc)
	return ew.err
}

// WriteMarkdown renders both tables as a Markdown section for EXPERIMENTS.md.
func WriteMarkdown(w io.Writer, rows []Row) error {
	ew := &errW{w: w}
	ew.p("### Table 1 — Improvement over the original power (%%)\n\n")
	ew.p("| circuit | OrgPwr µW (paper) | CVS (paper) | Dscale (paper) | Gscale (paper) | Gscale CPU s (paper) |\n")
	ew.p("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		p, _ := PaperByName(r.Name)
		ew.p("| %s | %.2f (%.2f) | %.2f (%.2f) | %.2f (%.2f) | %.2f (%.2f) | %.2f (%.2f) |\n",
			r.Name, r.OrgPwrUW, p.OrgPwrUW, r.CVSPct, p.CVSPct,
			r.DscalePct, p.DscalePct, r.GscalePct, p.GscalePct, r.CPUSec, p.CPUSec)
	}
	avg := Averages(rows)
	ew.p("| **average** | | **%.2f** (%.2f) | **%.2f** (%.2f) | **%.2f** (%.2f) | |\n\n",
		avg.CVSPct, PaperAverages.CVSPct, avg.DscalePct, PaperAverages.DscalePct,
		avg.GscalePct, PaperAverages.GscalePct)

	ew.p("### Table 2 — Profiles\n\n")
	ew.p("| circuit | gates (paper) | CVS low ratio (paper) | Dscale low ratio (paper) | Gscale low ratio (paper) | sized (paper) | area inc (paper) |\n")
	ew.p("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		p, _ := PaperByName(r.Name)
		ew.p("| %s | %d (%d) | %.2f (%.2f) | %.2f (%.2f) | %.2f (%.2f) | %d (%d) | %.2f (%.2f) |\n",
			r.Name, r.OrgGates, p.OrgGates, r.CVSRatio, p.CVSRatio,
			r.DscaleRatio, p.DscaleRatio, r.GscRatio, p.GscaleRatio,
			r.Sized, p.Sized, r.AreaInc, p.AreaInc)
	}
	ew.p("| **average** | | **%.2f** (%.2f) | **%.2f** (%.2f) | **%.2f** (%.2f) | | **%.2f** (%.2f) |\n",
		avg.CVSRatio, PaperAverages.CVSRatio, avg.DscaleRatio, PaperAverages.DscaleRatio,
		avg.GscRatio, PaperAverages.GscaleRatio, avg.AreaInc, PaperAverages.Area)
	return ew.err
}

type errW struct {
	w   io.Writer
	err error
}

func (e *errW) p(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// ShapeChecks verifies the qualitative claims of the paper's §4 against
// measured rows, returning human-readable failures (empty = all hold).
// These are the "trend shape" assertions: orderings and rough factors, not
// absolute numbers.
func ShapeChecks(rows []Row) []string {
	var fails []string
	avg := Averages(rows)
	if !(avg.GscalePct > avg.DscalePct && avg.DscalePct >= avg.CVSPct) {
		fails = append(fails, fmt.Sprintf(
			"average ordering violated: CVS %.2f, Dscale %.2f, Gscale %.2f",
			avg.CVSPct, avg.DscalePct, avg.GscalePct))
	}
	if avg.GscalePct < 1.4*avg.CVSPct {
		fails = append(fails, fmt.Sprintf(
			"Gscale should beat CVS by a wide factor (paper 1.86x): got %.2fx",
			avg.GscalePct/avg.CVSPct))
	}
	if avg.AreaInc > 0.10 {
		fails = append(fails, fmt.Sprintf("average area increase %.3f exceeds the 10%% cap", avg.AreaInc))
	}
	zeroCVS := 0
	for _, r := range rows {
		if r.CVSPct < 0.5 {
			zeroCVS++
		}
		if r.DscalePct < r.CVSPct-1e-9 {
			fails = append(fails, fmt.Sprintf("%s: Dscale (%.2f) below CVS (%.2f)", r.Name, r.DscalePct, r.CVSPct))
		}
		if r.GscalePct < r.CVSPct-1.0 {
			fails = append(fails, fmt.Sprintf("%s: Gscale (%.2f) clearly below CVS (%.2f)", r.Name, r.GscalePct, r.CVSPct))
		}
		if r.AreaInc > 0.101 {
			fails = append(fails, fmt.Sprintf("%s: area increase %.3f over budget", r.Name, r.AreaInc))
		}
	}
	// The paper finds 7 circuits where CVS achieves nothing; a suite of any
	// size must reproduce the existence of such circuits (balanced
	// structures that leave CVS no non-critical region).
	need := 1
	if len(rows) >= 10 {
		need = 2
	}
	if zeroCVS < need {
		fails = append(fails, fmt.Sprintf("only %d circuits with near-zero CVS; paper has 7 of 39", zeroCVS))
	}
	return fails
}

// String pretty-prints a row single-line (for logs).
func (r Row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: org=%.2fuW CVS=%.2f%% Dscale=%.2f%% Gscale=%.2f%% low=%.2f/%.2f/%.2f sized=%d area=+%.1f%%",
		r.Name, r.OrgPwrUW, r.CVSPct, r.DscalePct, r.GscalePct,
		r.CVSRatio, r.DscaleRatio, r.GscRatio, r.Sized, r.AreaInc*100)
	return b.String()
}
