package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// PerfRow is one cell of the T13 hot-path grid: one engine configuration
// on one topology over one transport, repeated-query steady state.
type PerfRow struct {
	Transport string  `json:"transport"` // pipe (simulated fabric) | tcp (real sockets)
	Topology  string  `json:"topology"`  // campus | tree40
	Config    string  `json:"config"`
	Runs      int     `json:"runs"`
	MeanMs    float64 `json:"mean_ms"`
	P50Ms     float64 `json:"p50_ms"`
	Rows      int     `json:"rows"` // result rows per query (sanity: identical down a column)

	// Counter deltas over the measured runs (warmup excluded).
	ConnDialed       int64 `json:"conn_dialed"`
	ConnReused       int64 `json:"conn_reused"`
	ParseCacheHits   int64 `json:"parse_cache_hits"`
	ParseCacheMisses int64 `json:"parse_cache_misses"`
	DBBuildCoalesced int64 `json:"db_build_coalesced"`
	DBCacheHits      int64 `json:"db_cache_hits"`
	DocsParsed       int64 `json:"docs_parsed"`
}

// PerfOut is the T13 result.
type PerfOut struct {
	Rows []PerfRow `json:"rows"`
	// SpeedupTCPTree is mean(baseline)/mean(optimized) on the tcp/tree40
	// workload — the headline number (acceptance: >= 2x).
	SpeedupTCPTree float64 `json:"speedup_tcp_tree40"`
}

// perfConfigs lists the measured engine configurations. "baseline" is the
// seed engine exactly: dial per message, sequential fan-out, parse per
// arrival, racy-build-per-request, one Query Processor worker, no DB
// cache. "optimized" turns every PR-3 hot-path change on. The ablations
// each turn exactly one optimization back off to attribute the win.
func perfConfigs() []struct {
	Name string
	Opts server.Options
} {
	optimized := server.Options{CacheDBs: true, Workers: 4}
	noPool := optimized
	noPool.NoConnPool = true
	serial := optimized
	serial.SerialFanout = true
	noParse := optimized
	noParse.NoParseCache = true
	noSF := optimized
	noSF.NoSingleflight = true
	return []struct {
		Name string
		Opts server.Options
	}{
		{"baseline", server.Options{NoConnPool: true, SerialFanout: true, NoParseCache: true, NoSingleflight: true}},
		{"optimized", optimized},
		{"no-pool", noPool},
		{"serial-fanout", serial},
		{"no-parse-cache", noParse},
		{"no-singleflight", noSF},
	}
}

type perfWorkload struct {
	Name  string
	Web   func() *webgraph.Web
	Query func(w *webgraph.Web) string
}

func perfWorkloads() []perfWorkload {
	return []perfWorkload{
		{"campus", webgraph.Campus, func(*webgraph.Web) string { return webgraph.CampusDISQL }},
		{"tree40", perfTreeWeb,
			func(w *webgraph.Web) string { return faultsQuery(w.First()) }},
	}
}

// perfTreeWeb builds the 40-site tree used by the tree40 cells. Same
// shape as the fault experiments' tree (fanout 3, depth 3, one page per
// site so every tree edge stays a Global link) but with realistically
// sized documents — ~5000 words each instead of 30 — so the steady-state
// cost the baseline pays per clone arrival (re-parsing and re-indexing
// the site's documents to rebuild its database) is representative rather
// than degenerate. The optimized configuration builds each site's
// database once and serves every later query from cache.
func perfTreeWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 5000, Seed: 7,
	})
}

// Perf runs T13: the PR-3 hot-path overhaul measured as before/after
// ablations on the campus and 40-site-tree topologies over the simulated
// pipe fabric and real TCP sockets, writing the grid to BENCH_PR3.json.
func Perf(w io.Writer) (*PerfOut, error) {
	return perfRun(w, 10, "BENCH_PR3.json")
}

// perfRun is the parameterized body: runs measured queries per cell after
// warmup; outPath == "" skips the JSON artifact (the shape test's mode).
func perfRun(w io.Writer, runs int, outPath string) (*PerfOut, error) {
	out := &PerfOut{}
	for _, transport := range []string{"pipe", "tcp"} {
		for _, wl := range perfWorkloads() {
			web := wl.Web()
			src := wl.Query(web)
			for _, cfg := range perfConfigs() {
				row, err := perfCell(transport, wl.Name, cfg.Name, web, cfg.Opts, src, runs)
				if err != nil {
					return nil, fmt.Errorf("perf %s/%s/%s: %w", transport, wl.Name, cfg.Name, err)
				}
				out.Rows = append(out.Rows, *row)
			}
		}
	}

	var base, opt float64
	for _, r := range out.Rows {
		if r.Transport == "tcp" && r.Topology == "tree40" {
			switch r.Config {
			case "baseline":
				base = r.MeanMs
			case "optimized":
				opt = r.MeanMs
			}
		}
	}
	if opt > 0 {
		out.SpeedupTCPTree = base / opt
	}

	fmt.Fprintln(w, "T13: hot-path overhaul — steady-state query latency, before/after ablations")
	fmt.Fprintln(w, "(per cell: one shared deployment, 2 warmup queries, then", runs, "measured)")
	fmt.Fprintln(w)
	rows := make([][]string, 0, len(out.Rows))
	for _, r := range out.Rows {
		rows = append(rows, []string{
			r.Transport, r.Topology, r.Config,
			fmt.Sprintf("%.2f", r.MeanMs), fmt.Sprintf("%.2f", r.P50Ms),
			fmt.Sprintf("%d", r.Rows),
			fmt.Sprintf("%d", r.ConnDialed), fmt.Sprintf("%d", r.ConnReused),
			fmt.Sprintf("%d", r.ParseCacheHits), fmt.Sprintf("%d", r.DBBuildCoalesced),
			fmt.Sprintf("%d", r.DocsParsed),
		})
	}
	table(w, []string{"transport", "topology", "config", "mean ms", "p50 ms", "rows", "dialed", "reused", "parse hits", "coalesced", "docs parsed"}, rows)
	fmt.Fprintf(w, "\nheadline: tcp/tree40 optimized is %.2fx faster than the no-pool/no-cache/sequential baseline\n", out.SpeedupTCPTree)

	if outPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "machine-readable grid written to %s\n", outPath)
	}
	return out, nil
}

// perfCell measures one configuration: a single long-lived deployment
// (connection pools, parse cache and DB caches persist across queries —
// the steady state the optimizations target), two warmup queries, then
// timed repeats.
func perfCell(transport, topology, config string, web *webgraph.Web, opts server.Options, src string, runs int) (*PerfRow, error) {
	cfg := core.Config{Web: web, Server: opts, NoDocService: true}
	if transport == "tcp" {
		cfg.Transport = netsim.NewTCP()
	}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	nrows := 0
	runOne := func() (time.Duration, error) {
		start := time.Now()
		var q *client.Query
		var err error
		if config == "baseline" {
			// The seed's path: a per-query collector endpoint and pool, on
			// which no connection outlives its query.
			if q, err = d.SubmitDISQL(src); err == nil {
				err = q.Wait(30 * time.Second)
			}
		} else {
			q, err = d.Run(src, 30*time.Second)
		}
		if err != nil {
			return 0, err
		}
		el := time.Since(start)
		nrows = 0
		for _, t := range q.Results() {
			nrows += len(t.Rows)
		}
		if nrows == 0 {
			return 0, fmt.Errorf("query delivered no rows")
		}
		return el, nil
	}

	for i := 0; i < 2; i++ {
		if _, err := runOne(); err != nil {
			return nil, err
		}
	}
	before := d.Metrics().Snapshot()
	durs := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		el, err := runOne()
		if err != nil {
			return nil, err
		}
		durs = append(durs, el)
	}
	after := d.Metrics().Snapshot()

	sort.Slice(durs, func(i, k int) bool { return durs[i] < durs[k] })
	var total time.Duration
	for _, el := range durs {
		total += el
	}
	return &PerfRow{
		Transport: transport, Topology: topology, Config: config, Runs: runs,
		MeanMs:           float64(total.Microseconds()) / float64(len(durs)) / 1e3,
		P50Ms:            float64(durs[len(durs)/2].Microseconds()) / 1e3,
		Rows:             nrows,
		ConnDialed:       after.ConnDialed - before.ConnDialed,
		ConnReused:       after.ConnReused - before.ConnReused,
		ParseCacheHits:   after.ParseCacheHits - before.ParseCacheHits,
		ParseCacheMisses: after.ParseCacheMisses - before.ParseCacheMisses,
		DBBuildCoalesced: after.DBBuildCoalesced - before.DBBuildCoalesced,
		DBCacheHits:      after.DBCacheHits - before.DBCacheHits,
		DocsParsed:       after.DocsParsed - before.DocsParsed,
	}, nil
}
