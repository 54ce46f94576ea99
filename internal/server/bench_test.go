package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tdd"
	"tdd/internal/wal"
)

// BenchmarkServedWarmAsk measures one served closed query on a warm spec
// cache — the E7 fast path the server exists for: HTTP round-trip + one
// rewrite + one lookup.
func BenchmarkServedWarmAsk(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, _ := json.Marshal(registerRequest{Unit: skiUnit})
	resp, err := http.Post(ts.URL+"/programs", "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	url := ts.URL + "/programs/" + reg.ID + "/ask"
	body, _ := json.Marshal(askRequest{Query: "plane(1000000, hunter)"})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var ar askResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkColdOpenAsk is the comparison point: what every query would
// cost without the server's cache — parse, validate, evaluate, certify
// the period, then answer.
func BenchmarkColdOpenAsk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db, err := tdd.OpenUnit(skiUnit)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Ask("plane(1000000, hunter)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintOffHotPath pins the E14 claim: linting runs once at
// compile time (the registry computes it before an entry is published),
// so the query path never touches it. The sub-benchmarks measure a warm
// closed ask before any lint runs, the one-time cost of the lint itself
// on the same DB (the cached specification is reused, so only the
// analysis runs), and the same warm ask afterwards — the two ask runs
// must be statistically identical.
func BenchmarkLintOffHotPath(b *testing.B) {
	db, err := tdd.OpenUnit(skiUnit)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Ask("plane(1000000, hunter)"); err != nil {
		b.Fatal(err)
	}
	ask := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Ask("plane(1000000, hunter)"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ask-pre-lint", ask)
	b.Run("lint-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := db.Lint(skiUnit); res.Warnings() != 0 {
				b.Fatalf("ski unit should lint clean, got %+v", res.Diagnostics)
			}
		}
	})
	b.Run("ask-post-lint", ask)
}

// BenchmarkDurableIngest measures one ingested batch through the
// registry under each durability mode — the E15 numbers: what the WAL
// (and each fsync policy) adds on top of the incremental ingest itself.
func BenchmarkDurableIngest(b *testing.B) {
	run := func(b *testing.B, attach func(b *testing.B, reg *Registry)) {
		reg := NewRegistry(8, 0, newMetrics(routeNames))
		if attach != nil {
			attach(b, reg)
		}
		ent, _, err := reg.Register(evenUnit, "", "")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct odd timestamps: every batch is one genuinely new fact.
			if _, _, err := reg.Ingest(ent.ID(), fmt.Sprintf("even(%d).\n", 3+2*i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := reg.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}
	durable := func(policy wal.Policy) func(*testing.B, *Registry) {
		return func(b *testing.B, reg *Registry) {
			store, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			reg.EnableDurability(store)
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, nil) })
	b.Run("fsync-off", func(b *testing.B) { run(b, durable(wal.FsyncOff)) })
	b.Run("fsync-interval", func(b *testing.B) { run(b, durable(wal.FsyncInterval)) })
	b.Run("fsync-always", func(b *testing.B) { run(b, durable(wal.FsyncAlways)) })
}

// BenchmarkServedWarmAskParallel drives the warm path from many client
// goroutines at once — the heavy-traffic shape.
func BenchmarkServedWarmAskParallel(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, _ := json.Marshal(registerRequest{Unit: evenUnit})
	resp, err := http.Post(ts.URL+"/programs", "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	url := ts.URL + "/programs/" + reg.ID + "/ask"

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body, _ := json.Marshal(askRequest{Query: fmt.Sprintf("even(%d)", 1000000+2*i)})
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var ar askResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if !ar.Result {
				b.Fatalf("even(%d) served false", 1000000+2*i)
			}
			i++
		}
	})
}
