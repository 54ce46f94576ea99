// Command tddload is a closed-loop load generator for tddserve: a fixed
// set of clients drives mixed ask / ingest / WAL-feed traffic against a
// live server (or a self-hosted ephemeral one), measures end-to-end
// latency percentiles and throughput, and reads the server's own
// /metrics counters before and after the run to report coalesce and
// shed rates. It is the measurement half of the serving core: the
// singleflight ask path and the fast-fail admission control are
// invisible in unit tests' microseconds — this tool makes them visible
// as p99s, 503s, and coalesce ratios under sustained concurrency.
//
// Usage:
//
//	tddload -self -duration 5s -clients 16 -mix ask=90,ingest=5,wal=5
//	tddload -url http://127.0.0.1:8080 -duration 10s -clients 32 -rate 500
//
// Flags:
//
//	-url URL      target server base URL (mutually exclusive with -self)
//	-self         host an ephemeral in-process server and load it
//	-duration d   run length (default 5s)
//	-clients n    concurrent closed-loop workers (default 16)
//	-rate n       target aggregate requests/sec, 0 = unpaced closed loop
//	-programs n   distinct programs to spread load over (default 4)
//	-mix spec     traffic weights, e.g. ask=90,ingest=5,wal=5
//	-hot f        fraction of asks aimed at one hot (program, query) pair
//	-queries n    distinct ask queries per program (default 32)
//	-seed n       RNG seed (default 1)
//	-scenario s   label for this run in the output (default "run")
//	-out FILE     write results JSON; with -append, merge into FILE
//	-append       merge this scenario into -out instead of overwriting
//
// Self-hosted server tuning (ignored with -url):
//
//	-workers n -queue n
//
// The closed loop is the honest shape for a backpressure benchmark:
// each client has at most one request outstanding, so offered load
// adapts to the server instead of building an unbounded client-side
// queue, and a shed (503) is visible as a fast small response
// rather than a timeout. Percentiles are computed over every request's
// wall time, sheds included — Retry-After'd rejections are answers too.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tdd/internal/server"
	"tdd/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tddload:", err)
		os.Exit(1)
	}
}

// opKind indexes the traffic mix.
const (
	opAsk = iota
	opAnswers
	opIngest
	opWal
	numOps
)

var opNames = [numOps]string{"ask", "answers", "ingest", "wal"}

// sample is one completed request.
type sample struct {
	op     int
	status int
	us     int64
}

func run() error {
	url := flag.String("url", "", "target server base URL (empty with -self)")
	self := flag.Bool("self", false, "host an ephemeral in-process server")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	clients := flag.Int("clients", 16, "concurrent closed-loop workers")
	rate := flag.Int("rate", 0, "target aggregate requests/sec (0 = unpaced)")
	programs := flag.Int("programs", 4, "distinct programs to spread load over")
	mixSpec := flag.String("mix", "ask=85,answers=5,ingest=5,wal=5", "traffic weights")
	hot := flag.Float64("hot", 0, "fraction of asks/answers aimed at one hot (program, query) pair")
	queries := flag.Int("queries", 32, "distinct ask queries per program")
	seed := flag.Int64("seed", 1, "RNG seed")
	scenario := flag.String("scenario", "run", "label for this run in the output")
	out := flag.String("out", "", "write results JSON to this file")
	appendOut := flag.Bool("append", false, "merge this scenario into -out")

	workers := flag.Int("workers", 0, "self-hosted: concurrent evaluations (0 = NumCPU)")
	queue := flag.Int("queue", 0, "self-hosted: worker queue bound (0 = default)")
	flag.Parse()

	if (*url == "") == !*self {
		return fmt.Errorf("exactly one of -url and -self is required")
	}
	if *clients < 1 || *programs < 1 || *queries < 1 {
		return fmt.Errorf("-clients, -programs, and -queries must be positive")
	}
	if *hot < 0 || *hot > 1 {
		return fmt.Errorf("-hot must be in [0,1]")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}

	base := *url
	if *self {
		srv, err := server.New(server.Config{Workers: *workers, Queue: *queue})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(l) //nolint:errcheck // torn down with the process
		defer srv.Close()
		base = "http://" + l.Addr().String()
		fmt.Fprintf(os.Stderr, "tddload: self-hosted server on %s\n", base)
	}
	base = strings.TrimRight(base, "/")

	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	// Register the program fleet: scaled ski workloads with distinct
	// seeds, so every program is a different content hash while staying
	// cheap to compile. Program 0 — the hot-key target — is a full-size
	// year so its enumerations do real work; the rest stay small.
	ids := make([]string, *programs)
	for i := range ids {
		p := workload.SkiParams{YearLen: 40, Resorts: 4, Planes: 6, Holidays: 3, Seed: *seed + int64(i)}
		if i == 0 {
			p = workload.SkiParams{YearLen: 4000, Resorts: 8, Planes: 40, Holidays: 5, Seed: *seed}
		}
		rules, facts := workload.Ski(p)
		id, err := register(httpc, base, rules, facts)
		if err != nil {
			return fmt.Errorf("registering program %d: %w", i, err)
		}
		ids[i] = id
	}

	// Per-program ask queries: plane(D, rR) over the cycle structure, so
	// distinct queries hit distinct spec rows.
	askBodies := make([][][]byte, *programs)
	for p := range askBodies {
		askBodies[p] = make([][]byte, *queries)
		for q := range askBodies[p] {
			query := fmt.Sprintf("plane(%d, r%d)", 1000+q*13, q%4)
			askBodies[p][q] = mustJSON(map[string]string{"query": query})
		}
	}
	// The hot keys are expensive requests with cheap responses — the
	// query everyone sends at once, which the singleflight exists for.
	// The hot ask scans every representative of the big program for a
	// constant that never occurs (a full negative existence check, one
	// boolean back); the hot answers request is the full enumeration.
	hotAskBody := mustJSON(map[string]string{"query": "exists T plane(T, nowhere)"})
	hotAnswersBody := mustJSON(map[string]any{"query": "plane(T, X)"})
	answersBody := mustJSON(map[string]any{"query": "plane(T, r0)", "limit": 16})

	before, err := scrapeMetrics(httpc, base)
	if err != nil {
		return fmt.Errorf("scraping /metrics before run: %w", err)
	}

	// Optional pacing: a token channel refilled at -rate. Workers take a
	// token per request; the loop stays closed (no client ever has two
	// requests outstanding), the ticker just caps the aggregate rate.
	var tokens chan struct{}
	stop := make(chan struct{})
	if *rate > 0 {
		tokens = make(chan struct{}, *rate)
		interval := time.Second / time.Duration(*rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	deadline := time.Now().Add(*duration)
	results := make([][]sample, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 1000 + int64(c)))
			var local []sample
			seq := 0
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						break
					}
				}
				op := pickOp(rng, mix)
				var (
					status int
					err    error
				)
				t0 := time.Now()
				switch op {
				case opAsk:
					if *hot > 0 && rng.Float64() < *hot {
						status, err = post(httpc, base+"/programs/"+ids[0]+"/ask", hotAskBody)
					} else {
						p, q := rng.Intn(*programs), rng.Intn(*queries)
						status, err = post(httpc, base+"/programs/"+ids[p]+"/ask", askBodies[p][q])
					}
				case opAnswers:
					if *hot > 0 && rng.Float64() < *hot {
						status, err = post(httpc, base+"/programs/"+ids[0]+"/answers", hotAnswersBody)
					} else {
						p := rng.Intn(*programs)
						status, err = post(httpc, base+"/programs/"+ids[p]+"/answers", answersBody)
					}
				case opIngest:
					// Ingests go to the small programs: a batch into the big
					// hot-key program recompiles thousands of states and
					// would turn the mixed workload into an ingest benchmark.
					p := 0
					if *programs > 1 {
						p = 1 + rng.Intn(*programs-1)
					}
					seq++
					facts := fmt.Sprintf("resort(x%dc%d).\nplane(%d, x%dc%d).\n", c, seq, rng.Intn(40), c, seq)
					status, err = post(httpc, base+"/programs/"+ids[p]+"/facts", mustJSON(map[string]string{"facts": facts}))
				case opWal:
					p := rng.Intn(*programs)
					status, err = get(httpc, base+"/programs/"+ids[p]+"/wal?from=1000000")
				}
				us := time.Since(t0).Microseconds()
				if err != nil {
					status = -1
				}
				local = append(local, sample{op: op, status: status, us: us})
			}
			results[c] = local
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)

	after, err := scrapeMetrics(httpc, base)
	if err != nil {
		return fmt.Errorf("scraping /metrics after run: %w", err)
	}

	rep := summarize(*scenario, base, elapsed, *clients, *rate, *programs, *mixSpec, *hot, results, before, after)
	if *self {
		rep.Self = &selfConfig{Workers: *workers, Queue: *queue}
	}
	printReport(os.Stderr, rep)
	if *out != "" {
		if err := writeReport(*out, *scenario, rep, *appendOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tddload: wrote scenario %q to %s\n", *scenario, *out)
	}
	// A transport-level error rate is a failed run regardless of output.
	if rep.TransportErrors > 0 {
		return fmt.Errorf("%d transport errors", rep.TransportErrors)
	}
	return nil
}

// parseMix parses "ask=90,ingest=5,wal=5" into cumulative op weights.
func parseMix(spec string) ([numOps]int, error) {
	var mix [numOps]int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return mix, fmt.Errorf("bad mix component %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return mix, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for i, n := range opNames {
			if n == name {
				mix[i] = w
				found = true
			}
		}
		if !found {
			return mix, fmt.Errorf("unknown mix op %q (want ask, ingest, wal)", name)
		}
	}
	total := 0
	for _, w := range mix {
		total += w
	}
	if total == 0 {
		return mix, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return mix, nil
}

func pickOp(rng *rand.Rand, mix [numOps]int) int {
	total := 0
	for _, w := range mix {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range mix {
		if n < w {
			return i
		}
		n -= w
	}
	return opAsk
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func register(c *http.Client, base, rules, facts string) (string, error) {
	body := mustJSON(map[string]string{"rules": rules, "facts": facts})
	resp, err := c.Post(base+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		return "", err
	}
	return reg.ID, nil
}

func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

func get(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

// scrapeMetrics decodes GET /metrics; summarize reads the server-side
// counters out of it by the keys the server's metric table declares.
func scrapeMetrics(c *http.Client, base string) (map[string]any, error) {
	var snap map[string]any
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// selfConfig records the self-hosted server's tuning in the report.
type selfConfig struct {
	Workers int `json:"workers"`
	Queue   int `json:"queue"`
}

// opReport is the per-operation latency/throughput section.
type opReport struct {
	Requests int   `json:"requests"`
	OK       int   `json:"ok"`
	P50Us    int64 `json:"p50_us"`
	P95Us    int64 `json:"p95_us"`
	P99Us    int64 `json:"p99_us"`
	MaxUs    int64 `json:"max_us"`
}

// report is one scenario's result block in the -out file.
type report struct {
	URL             string  `json:"url"`
	DurationSec     float64 `json:"duration_sec"`
	Clients         int     `json:"clients"`
	RateTarget      int     `json:"rate_target_rps,omitempty"`
	Programs        int     `json:"programs"`
	Mix             string  `json:"mix"`
	Hot             float64 `json:"hot,omitempty"`
	Requests        int     `json:"requests"`
	OK              int     `json:"ok"`
	Shed503         int     `json:"shed_503"`
	OtherErrors     int     `json:"other_errors"`
	TransportErrors int     `json:"transport_errors"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	P50Us           int64   `json:"p50_us"`
	P95Us           int64   `json:"p95_us"`
	P99Us           int64   `json:"p99_us"`
	MaxUs           int64   `json:"max_us"`
	// Shed latency percentiles cover only 503 responses: the promise
	// is that a rejection is fast, and this is where that is checked.
	ShedP99Us int64 `json:"shed_p99_us,omitempty"`
	// Server-side deltas over the run, from /metrics.
	Coalesced     int64   `json:"coalesced"`
	FlightLeaders int64   `json:"flight_leaders"`
	CoalesceRate  float64 `json:"coalesce_rate"`
	ServerShed    int64   `json:"server_shed"`
	ShedRate      float64 `json:"shed_rate"`

	PerOp map[string]opReport `json:"per_op"`
	Self  *selfConfig         `json:"self,omitempty"`
}

func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func summarize(scenario, base string, elapsed time.Duration, clients, rate, programs int,
	mix string, hot float64, results [][]sample, before, after map[string]any) report {
	rep := report{
		URL: base, DurationSec: elapsed.Seconds(), Clients: clients,
		RateTarget: rate, Programs: programs, Mix: mix, Hot: hot,
		PerOp: make(map[string]opReport),
	}
	var all, shedLat []int64
	perOp := make([][]int64, numOps)
	perOpOK := make([]int, numOps)
	for _, local := range results {
		for _, s := range local {
			rep.Requests++
			all = append(all, s.us)
			perOp[s.op] = append(perOp[s.op], s.us)
			switch {
			case s.status == -1:
				rep.TransportErrors++
			case s.status == http.StatusServiceUnavailable:
				rep.Shed503++
				shedLat = append(shedLat, s.us)
			case s.status >= 400:
				rep.OtherErrors++
			default:
				rep.OK++
				perOpOK[s.op]++
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(shedLat, func(i, j int) bool { return shedLat[i] < shedLat[j] })
	rep.P50Us = percentile(all, 0.50)
	rep.P95Us = percentile(all, 0.95)
	rep.P99Us = percentile(all, 0.99)
	if n := len(all); n > 0 {
		rep.MaxUs = all[n-1]
	}
	if len(shedLat) > 0 {
		rep.ShedP99Us = percentile(shedLat, 0.99)
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed.Seconds()
	}
	for op := 0; op < numOps; op++ {
		lat := perOp[op]
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rep.PerOp[opNames[op]] = opReport{
			Requests: len(lat),
			OK:       perOpOK[op],
			P50Us:    percentile(lat, 0.50),
			P95Us:    percentile(lat, 0.95),
			P99Us:    percentile(lat, 0.99),
			MaxUs:    lat[len(lat)-1],
		}
	}
	delta := func(key string) int64 {
		a, _ := after[key].(float64)
		b, _ := before[key].(float64)
		return int64(a - b)
	}
	rep.Coalesced = delta(server.KeyCoalesced)
	rep.FlightLeaders = delta(server.KeyFlightLeaders)
	if evals := rep.Coalesced + rep.FlightLeaders; evals > 0 {
		rep.CoalesceRate = float64(rep.Coalesced) / float64(evals)
	}
	rep.ServerShed = delta(server.KeyShed)
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed503) / float64(rep.Requests)
	}
	_ = scenario
	return rep
}

func printReport(w io.Writer, r report) {
	fmt.Fprintf(w, "tddload: %d requests in %.2fs — %.0f ok/s, %d ok, %d shed (503), %d errors\n",
		r.Requests, r.DurationSec, r.ThroughputRPS, r.OK, r.Shed503, r.OtherErrors+r.TransportErrors)
	fmt.Fprintf(w, "tddload: latency p50 %dus  p95 %dus  p99 %dus  max %dus\n", r.P50Us, r.P95Us, r.P99Us, r.MaxUs)
	fmt.Fprintf(w, "tddload: coalesce rate %.1f%% (%d joined / %d leaders), shed rate %.1f%%\n",
		r.CoalesceRate*100, r.Coalesced, r.FlightLeaders, r.ShedRate*100)
}

// benchFile is the -out file's shape: named scenarios plus provenance.
type benchFile struct {
	GeneratedBy string            `json:"generated_by"`
	Scenarios   map[string]report `json:"scenarios"`
}

func writeReport(path, scenario string, rep report, merge bool) error {
	bf := benchFile{GeneratedBy: "tddload", Scenarios: map[string]report{}}
	if merge {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &bf); err != nil {
				return fmt.Errorf("merging into %s: %w", path, err)
			}
			if bf.Scenarios == nil {
				bf.Scenarios = map[string]report{}
			}
		}
	}
	bf.GeneratedBy = "tddload"
	bf.Scenarios[scenario] = rep
	data, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
