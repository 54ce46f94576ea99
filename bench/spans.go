package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the recorder's epoch. Parent is the index
// of the span that caused this one within the same recorder (-1 for an
// op's root span); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Client int    `json:"client"`
}

// recorder keeps one client's spans in memory; nothing is written until
// the run ends. It is used by one goroutine only.
type recorder struct {
	epoch  time.Time
	client int
	spans  []span
}

func newRecorder(epoch time.Time, client int) *recorder {
	return &recorder{epoch: epoch, client: client}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Client: r.client})
	i := len(r.spans) - 1
	r.spans[i].Start = int64(time.Since(r.epoch))
	return i
}

// end closes span i.
func (r *recorder) end(i int) {
	r.spans[i].End = int64(time.Since(r.epoch))
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children are clipped to the parent
// and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// stageStats folds one traced pass into per-stage figures: for every span
// name the median duration of one span in milliseconds (a root span
// reports its self time, which is the driver's glue between stages), and
// over all ops the median time an op spent inside its stages.
type stageStats struct {
	spanMs  map[string]float64
	stageMs float64
}

func foldSpans(recs []*recorder) stageStats {
	single := make(map[string][]float64)
	var staged []float64 // per op: time covered by the root's direct children
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			d := float64(s.End-s.Start) / 1e6
			if s.Parent < 0 {
				staged = append(staged, d-float64(self[i])/1e6)
				d = float64(self[i]) / 1e6
			}
			single[s.Name] = append(single[s.Name], d)
		}
	}
	st := stageStats{spanMs: make(map[string]float64, len(single)), stageMs: median(staged)}
	for name, ds := range single {
		st.spanMs[name] = median(ds)
	}
	return st
}

// writeSpans dumps the recorded spans as JSON once the run is over.
func writeSpans(path string, host hostInfo, workload string, seed int64, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Host     hostInfo `json:"host"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Spans    []span   `json:"spans"`
	}{Host: host, Workload: workload, Seed: seed}
	for _, r := range recs {
		// Parent indexes are per recorder; rebase them onto the merged list.
		base := len(doc.Spans)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			doc.Spans = append(doc.Spans, s)
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
