package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is BENCHMARK.json: the declaration the driver checks the
// benchmark against, and where bounds and directions are read from.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readBenchmarkFile(path string) (bf benchmarkFile, err error) {
	return bf, readJSON(path, &bf)
}

// worsening returns by what share of base the new reading is worse, in
// the metric's own direction (negative: better).
func worsening(d metricDef, base, cur float64) float64 {
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// verdict judges one workload × metric pair. A reading that carries the
// spread of repeated runs (a -calibrate document) is unresolved when that
// spread is wider than the bound, unless every run of one side beats
// every run of the other.
func verdict(d metricDef, base, cur metricValue) string {
	if base.Value == 0 || cur.Unit != base.Unit {
		return "unresolved"
	}
	w := worsening(d, base.Value, cur.Value)
	if base.Spread > d.Bound || cur.Spread > d.Bound {
		apart := cur.Min > base.Max || cur.Max < base.Min
		if !apart {
			return "unresolved"
		}
	}
	switch {
	case w > d.Bound:
		return "regressed"
	case w < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareDocs prints one row per workload × end-to-end metric and reports
// whether any regressed. More failed ops than before is a regression
// whatever the timings say.
func compareDocs(w io.Writer, bf benchmarkFile, old, cur document) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	for _, wl := range bf.Workloads {
		b, okB := old.Workloads[wl.Name]
		c, okC := cur.Workloads[wl.Name]
		if !okB || !okC {
			fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s  unresolved (missing on one side)\n", wl.Name, "*", "-", "-", "-")
			continue
		}
		if c.Failed > b.Failed || (b.Correct && !c.Correct) {
			fmt.Fprintf(w, "%-14s %-16s %14d %14d %8s  regressed\n", wl.Name, "failed_ops", b.Failed, c.Failed, "-")
			regressed = true
		}
		for _, d := range bf.EndToEnd {
			bv, cv := b.Metrics[d.Name], c.Metrics[d.Name]
			v := verdict(d, bv, cv)
			ratio := "-"
			if bv.Value != 0 {
				ratio = strconv.FormatFloat(cv.Value/bv.Value, 'f', 3, 64)
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %8s  %s\n", wl.Name, d.Name, bv.Value, cv.Value, ratio, v)
			regressed = regressed || v == "regressed"
		}
	}
	return regressed
}

func compareFiles(w io.Writer, boundsPath, oldPath, newPath string) (bool, error) {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return false, err
	}
	var old, cur document
	if err := readJSON(oldPath, &old); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return false, err
	}
	return compareDocs(w, bf, old, cur), nil
}

// calibrateRuns measures the benchmark's own repeatability the way the
// acceptance check does: n passes over all workloads, every run a fresh
// process with the next seed. It prints, per workload × end-to-end metric,
// the median, minimum, maximum, (max − min)/median and the interquartile
// range over the median against the bound, and reports whether every
// interquartile share stayed within its bound (set-up time is exempt, as
// it is for the driver; a share above a third of the bound is marked
// loose). With outPath set the medians are written as a document that
// -compare understands, spreads included.
func calibrateRuns(stdout, stderr io.Writer, boundsPath string, n int, seed int64, seconds float64, outPath string) (bool, error) {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	readings := make(map[string]map[string][]float64) // workload → metric → one value per pass
	for pass := 0; pass < n; pass++ {
		for _, wl := range bf.Workloads {
			fmt.Fprintf(stderr, "calibrate: pass %d/%d %s\n", pass+1, n, wl.Name)
			cmd := exec.Command(self,
				"-workload", wl.Name,
				"-seed", strconv.FormatInt(seed+int64(pass), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", "0")
			var so bytes.Buffer
			cmd.Stdout = &so
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s, pass %d: %w", wl.Name, pass+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(so.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return false, fmt.Errorf("%s, pass %d: result line: %w", wl.Name, pass+1, err)
			}
			if readings[wl.Name] == nil {
				readings[wl.Name] = make(map[string][]float64)
			}
			for _, d := range bf.EndToEnd {
				v := res.Metrics[d.Name].Value
				readings[wl.Name][d.Name] = append(readings[wl.Name][d.Name], v)
				fmt.Fprintf(stderr, "  %s=%.5g", d.Name, v)
			}
			fmt.Fprintln(stderr)
		}
	}

	ok := true
	doc := document{Host: pinHost(), Seed: seed, Seconds: seconds, Workloads: map[string]result{}}
	fmt.Fprintf(stdout, "| workload | metric | median | min | max | (max-min)/median | IQR/median | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bf.Workloads {
		res := result{Correct: true, Metrics: map[string]metricValue{}}
		for _, d := range bf.EndToEnd {
			sp := spreadOf(readings[wl.Name][d.Name])
			note := "ok"
			switch {
			case d.Name == "setup_s":
				note = "not gated"
			case sp.IQRShare > d.Bound:
				note, ok = "EXCEEDS", false
			case sp.IQRShare > d.Bound/3:
				note = "loose"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %.2f | %s |\n",
				wl.Name, d.Name, sp.Median, sp.Min, sp.Max, sp.RangeShare, sp.IQRShare, d.Bound, note)
			res.Metrics[d.Name] = metricValue{Value: sp.Median, Unit: d.Unit, Min: sp.Min, Max: sp.Max, Spread: sp.IQRShare}
		}
		doc.Workloads[wl.Name] = res
	}
	if outPath != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}
