package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"time"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/spec"
)

// goldenSeed is the default seed, whose results are pinned in golden.json.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is what a set-up computed about its model: the certified
// period, the engine's work counts, the fingerprint of the whole infinite
// model, and the expected answer of every query the ops ask.
type goldenEntry struct {
	Base        int      `json:"base"`
	P           int      `json:"p"`
	Derived     int      `json:"derived"`
	Firings     int      `json:"firings"`
	Fingerprint string   `json:"fingerprint"`
	Answers     []string `json:"answers"`
}

// probe is one query a workload asks: closed (Ask) or open with a limit
// (AnswersLimit, 0 = all).
type probe struct {
	Query string
	Open  bool
	Limit int
}

// asker is what a probe needs of a query processor; the facade's DB and
// an imported specification both provide it.
type asker interface {
	Ask(q string) (bool, error)
	AnswersLimit(q string, max int) ([]tdd.Answer, error)
}

// expect evaluates the probe and renders the answer: "true"/"false" for a
// closed query, count and digest for an open one.
func (p probe) expect(db asker) (string, error) {
	if !p.Open {
		ok, err := db.Ask(p.Query)
		return strconv.FormatBool(ok), err
	}
	ans, err := db.AnswersLimit(p.Query, p.Limit)
	if err != nil {
		return "", err
	}
	return renderAnswers(ans), nil
}

func renderAnswers(ans []tdd.Answer) string {
	sum := sha256.Sum256([]byte(tdd.FormatAnswers(ans)))
	return fmt.Sprintf("%d answers %s", len(ans), hex.EncodeToString(sum[:6]))
}

// goldenOf certifies db and collects its golden entry over the probes.
func goldenOf(db *tdd.DB, probes []probe) (goldenEntry, error) {
	var g goldenEntry
	per, err := db.Period()
	if err != nil {
		return g, err
	}
	g.Base, g.P = per.Base, per.P
	g.Derived, g.Firings, _ = db.EngineStats()
	if g.Fingerprint, err = db.ModelFingerprint(); err != nil {
		return g, err
	}
	for _, p := range probes {
		a, err := p.expect(db)
		if err != nil {
			return g, fmt.Errorf("%s: %w", p.Query, err)
		}
		g.Answers = append(g.Answers, p.Query+" => "+a)
	}
	return g, nil
}

// crossCheckSpec exports db's specification, imports it, and requires the
// stand-alone copy to give the same period and the same answer to every
// probe: the expected answers do not rest on one code path alone.
func crossCheckSpec(db *tdd.DB, probes []probe) error {
	data, err := db.ExportSpec()
	if err != nil {
		return err
	}
	sdb, err := tdd.ImportSpec(data)
	if err != nil {
		return err
	}
	per, err := db.Period()
	if err != nil {
		return err
	}
	if sdb.Period() != per {
		return mismatch("imported period", sdb.Period(), per)
	}
	for _, p := range probes {
		want, err := p.expect(db)
		if err != nil {
			return err
		}
		got, err := p.expect(sdb)
		if err != nil {
			return err
		}
		if got != want {
			return mismatch("imported spec: "+p.Query, got, want)
		}
	}
	return nil
}

// specProbe measures the specification layer once: |T| and |B|, and the
// cost and size of exporting it.
func specProbe(s *spec.Spec, preds map[string]ast.PredInfo, out map[string]float64) error {
	if s == nil {
		return nil
	}
	reps, facts := s.Size()
	t0 := time.Now()
	data, err := s.Export(preds)
	if err != nil {
		return err
	}
	out["spec.export_ms"] = float64(time.Since(t0)) / 1e6
	out["spec.export_bytes"] = float64(len(data))
	out["spec.reps"] = float64(reps)
	out["spec.facts"] = float64(facts)
	out["period.base"] = float64(s.Period.Base)
	out["period.p"] = float64(s.Period.P)
	return nil
}

// goldenFile is golden.json: the entries of every workload at goldenSeed.
type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

// checkGolden compares a run at the golden seed with the pinned entry.
func checkGolden(name string, got goldenEntry) error {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := gf.Workloads[name]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s", name)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s differs from golden.json:\n got  %+v\n want %+v", name, got, want)
	}
	return nil
}

// writeGolden regenerates golden.json from fresh set-ups at goldenSeed.
func writeGolden(path string) error {
	gf := goldenFile{Seed: goldenSeed, Workloads: make(map[string]goldenEntry)}
	for _, w := range workloads {
		inst, err := w.setup(goldenSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		gf.Workloads[w.name] = inst.golden()
		inst.close()
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
