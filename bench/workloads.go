package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/server"
	"webdis/internal/store"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
)

// params are a run's inputs: the seed every generated input derives
// from, and the scratch directory site stores are written to.
type params struct {
	seed int64
	dir  string
}

// checkQueries is the number of one-shot queries a checkpoint runs, each
// compared with the watch's standing set.
const checkQueries = 20

// opTimeout bounds one query or watch step; exceeding it fails the op.
const opTimeout = 30 * time.Second

// traceCapacity sizes every trace journal's ring in traced runs. The
// traced loop drains the journals whenever one is half full, so the
// ring never drops an event (checked: trace.journal_dropped).
const traceCapacity = 8192

// workload is one fixed input set and traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines.
	clients int
	// checkpoints is the number of out-of-window correctness checkpoints
	// inside the window; one more follows it (0: every op is checked
	// inline instead).
	checkpoints int
	// reference computes the answer every op is checked against, on a
	// deployment other than the measured one (nil: no fixed answer).
	reference func(p params) ([]client.ResultTable, error)
	// setup builds, starts and warms one measured instance. n numbers
	// the set-ups of one run, so their stores do not collide.
	setup func(p params, n int, traced bool, ref []client.ResultTable) (*instance, error)
}

var workloads = map[string]*workload{
	"tree40-tcp":    {name: "tree40-tcp", clients: 2, reference: tree40Reference, setup: tree40Setup},
	"bigtree-store": {name: "bigtree-store", clients: 1, reference: bigtreeReference, setup: bigtreeSetup},
	"watch-store":   {name: "watch-store", clients: 1, checkpoints: 2, setup: watchSetup},
}

// sample is the outcome of one op.
type sample struct {
	lat      time.Duration
	firstRow time.Duration // submit to first row (queries only)
	stats    client.Stats  // the query's protocol statistics (queries only)
	mutate   time.Duration // time in Deployment.Mutate (watch steps only)
	wait     time.Duration // time in Watch.WaitEpoch (watch steps only)
	qid      string        // query id, to find the op's journey (queries only)
	start    time.Duration // trace clock at op start
	end      time.Duration // trace clock at op end
	err      error
}

// instance is one running, warmed deployment of a workload.
type instance struct {
	d        *core.Deployment
	web      *webgraph.Web // the deployment's (possibly mutating) web
	src      string        // the workload's DISQL query
	net      *netsim.Stats // transport traffic counters
	storeDir string        // prebuilt site stores, "" when served from RAM
	op       func() sample
	// check runs one out-of-window checkpoint; its sample carries the
	// checkpoint query's first-row time.
	check func() sample
	// finish verifies the run-end invariants.
	finish func() error
	// current returns the answer as it stands: the reference for query
	// workloads, the standing set for the watch.
	current func() []client.ResultTable
	close   func()
}

// engineOptions is the one engine configuration every workload runs
// with: planner on, subsume dedup, wire v2 (the default), two workers
// per site (the machine has two CPUs).
func engineOptions(cacheDBs bool) server.Options {
	return server.Options{
		Dedup:    nodeproc.DedupSubsume,
		DedupSet: true,
		Workers:  2,
		CacheDBs: cacheDBs,
		Planner:  server.PlannerOptions{Enabled: true},
	}
}

// editOnly is the mutation schedule of every deployment: text edits
// only, so the web keeps its pages and links, and the standing answer
// its size. The start page's site is left alone, so a query's first row
// stays one hop away. Query workloads call Mutate only in the per-layer
// run's closing write probe.
func editOnly(seed int64, w *webgraph.Web) webgraph.MutationPlan {
	var sites []string
	for _, h := range w.Hosts() {
		if h != webgraph.Host(w.First()) {
			sites = append(sites, h)
		}
	}
	return webgraph.MutationPlan{Seed: seed*7919 + 17, Edit: 1, Sites: sites}
}

// rootMarked gives the start page the marker when the seed did not, so
// every query's first row comes from its first hop: time to first row
// then measures the same path whatever the seed.
func rootMarked(w *webgraph.Web) *webgraph.Web {
	p := w.Page(w.First())
	for _, it := range p.Items {
		if strings.Contains(it.Text, webgraph.Marker) {
			return w
		}
	}
	p.AddText("This page holds the token " + webgraph.Marker + ".")
	return w
}

func markerQuery(w *webgraph.Web, preExpr string) string {
	return fmt.Sprintf(`select d.url from document d such that %q %s d where d.text contains %q`,
		w.First(), preExpr, webgraph.Marker)
}

// ---------------------------------------------------------------------------
// tree40-tcp

func tree40Web(seed int64) *webgraph.Web {
	return rootMarked(webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 30, Seed: seed,
	}))
}

// tree40Reference answers the query on an in-RAM deployment over the
// in-process fabric with the planner off.
func tree40Reference(p params) ([]client.ResultTable, error) {
	web := tree40Web(p.seed)
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{NoDocService: true}})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return oneShot(d, markerQuery(web, "N|(G*3)"))
}

func tree40Setup(p params, _ int, traced bool, ref []client.ResultTable) (*instance, error) {
	web := tree40Web(p.seed)
	tcp := netsim.NewTCP()
	d, err := core.NewDeployment(core.Config{
		Web: web,
		Exec: core.ExecConfig{
			Transport: tcp, Server: engineOptions(true), NoDocService: true,
			Trace: traced, TraceCapacity: traceCapacity,
		},
		Watch: core.WatchConfig{Mutations: editOnly(p.seed, web)},
	})
	if err != nil {
		return nil, err
	}
	inst := queryInstance(d, web, markerQuery(web, "N|(G*3)"), tcp.Stats(), ref)
	if err := warm(inst, 20); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// bigtree-store

func bigtreeWeb(seed int64) *webgraph.Web {
	return rootMarked(webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 5, PagesPerSite: 12,
		MarkerFrac: 0.05, FillerWords: 2000, Seed: seed,
	}))
}

func bigtreeQuery(w *webgraph.Web) string {
	return fmt.Sprintf(
		`select d.url from document d such that %q N|(L|G)*5 d where d.text contains %q and d.text not contains "qqfillerzz"`,
		w.First(), webgraph.Marker)
}

// bigtreePoolPages is each site's buffer pool: 64 KiB against roughly
// 200 KiB of pages per site, so serving a query must read and evict.
const bigtreePoolPages = 16

// bigtreeReference answers the query on an in-RAM deployment with the
// same engine configuration.
func bigtreeReference(p params) ([]client.ResultTable, error) {
	web := bigtreeWeb(p.seed)
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: engineOptions(false), NoDocService: true}})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return oneShot(d, bigtreeQuery(web))
}

func bigtreeSetup(p params, n int, traced bool, ref []client.ResultTable) (*instance, error) {
	dir := filepath.Join(p.dir, fmt.Sprintf("bigtree-%d", n))
	if err := buildStores(dir, bigtreeWeb(p.seed)); err != nil {
		return nil, err
	}
	// A second, never-rendered copy of the web: every page the engine
	// serves can only come off the stores.
	web := bigtreeWeb(p.seed)
	d, err := core.NewDeployment(core.Config{
		Web:     web,
		Storage: server.StoreOptions{Dir: dir, PoolPages: bigtreePoolPages},
		Exec: core.ExecConfig{
			Server: engineOptions(false), NoDocService: true,
			Trace: traced, TraceCapacity: traceCapacity,
		},
		Watch: core.WatchConfig{Mutations: editOnly(p.seed, web)},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	inst := queryInstance(d, web, bigtreeQuery(web), d.Network().Stats(), ref)
	inst.storeDir = dir
	inst.finish = func() error {
		if parsed := d.Metrics().Snapshot().DocsParsed; parsed != 0 {
			return fmt.Errorf("store-backed deployment parsed %d documents, want 0", parsed)
		}
		return nil
	}
	closeDeployment := inst.close
	inst.close = func() {
		closeDeployment()
		os.RemoveAll(dir)
	}
	if err := warm(inst, 2); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// watch-store

func watchWeb(seed int64) *webgraph.Web {
	return rootMarked(webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 200, Seed: seed,
	}))
}

// watchPoolPages holds every page of a site's store, so the watch
// workload runs from cache.
const watchPoolPages = 64

func watchSetup(p params, n int, traced bool, _ []client.ResultTable) (*instance, error) {
	dir := filepath.Join(p.dir, fmt.Sprintf("watch-%d", n))
	if err := buildStores(dir, watchWeb(p.seed)); err != nil {
		return nil, err
	}
	web := watchWeb(p.seed)
	src := markerQuery(web, "N|(G*3)")
	d, err := core.NewDeployment(core.Config{
		Web:     web,
		Storage: server.StoreOptions{Dir: dir, PoolPages: watchPoolPages},
		Exec: core.ExecConfig{
			Server: engineOptions(false), NoDocService: true,
			Trace: traced, TraceCapacity: traceCapacity,
		},
		Watch: core.WatchConfig{Mutations: editOnly(p.seed, web)},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	wa, err := d.Watch(ctx, src, core.WatchOptions{})
	if err != nil {
		cancel()
		d.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	epoch := 0 // only the single client goroutine touches it
	inst := &instance{
		d: d, web: web, src: src, net: d.Network().Stats(), storeDir: dir,
		close: func() {
			wa.Close()
			cancel()
			d.Close()
			os.RemoveAll(dir)
		},
	}
	inst.op = func() sample {
		s := sample{start: trace.Now()}
		t0 := time.Now()
		muts, notified := d.Mutate(1)
		t1 := time.Now()
		epoch += notified
		wctx, wcancel := context.WithTimeout(ctx, opTimeout)
		err := wa.WaitEpoch(wctx, epoch)
		wcancel()
		t2 := time.Now()
		s.end = trace.Now()
		s.lat, s.mutate, s.wait = t2.Sub(t0), t1.Sub(t0), t2.Sub(t1)
		switch {
		case err != nil:
			s.err = fmt.Errorf("watch step: %w", err)
		case len(muts) != 1:
			s.err = errors.New("watch step: the mutation schedule applied no mutation")
		}
		return s
	}
	inst.check = func() sample {
		t0 := time.Now()
		q, err := d.Run(src, opTimeout)
		s := sample{lat: time.Since(t0)}
		if err == nil {
			err = q.Err()
		}
		if err != nil {
			s.err = fmt.Errorf("checkpoint query: %w", err)
			return s
		}
		s.stats = q.Stats()
		s.firstRow = s.stats.FirstRow
		if !sameAnswer(wa.Results(), q.Results()) {
			s.err = errors.New("checkpoint: the watch's standing set differs from a one-shot run")
		}
		return s
	}
	inst.current = wa.Results
	inst.finish = func() error {
		if countRows(wa.Results()) == 0 {
			return errors.New("the watch's standing set is empty")
		}
		return nil
	}
	if err := warm(inst, 50); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// shared

// queryInstance wraps a query deployment: one op is one Deployment.Run,
// checked against the reference answer.
func queryInstance(d *core.Deployment, web *webgraph.Web, src string, st *netsim.Stats, ref []client.ResultTable) *instance {
	inst := &instance{d: d, web: web, src: src, net: st, close: d.Close}
	inst.op = func() sample {
		s := sample{start: trace.Now()}
		t0 := time.Now()
		q, err := d.Run(src, opTimeout)
		s.lat = time.Since(t0)
		s.end = trace.Now()
		if err == nil {
			err = q.Err()
		}
		if err != nil {
			s.err = fmt.Errorf("query: %w", err)
			return s
		}
		s.qid = q.ID().String()
		s.stats = q.Stats()
		s.firstRow = s.stats.FirstRow
		if got := q.Results(); countRows(got) == 0 {
			s.err = errors.New("query: empty answer")
		} else if !sameAnswer(got, ref) {
			s.err = errors.New("query: answer differs from the reference")
		}
		return s
	}
	inst.current = func() []client.ResultTable { return ref }
	return inst
}

// warm runs n ops (part of set-up) and fails on the first failed one.
func warm(inst *instance, n int) error {
	for i := 0; i < n; i++ {
		if s := inst.op(); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// oneShot runs src once and returns its answer, which must be complete
// and non-empty.
func oneShot(d *core.Deployment, src string) ([]client.ResultTable, error) {
	q, err := d.Run(src, opTimeout)
	if err == nil {
		err = q.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("reference query: %w", err)
	}
	res := q.Results()
	if countRows(res) == 0 {
		return nil, errors.New("reference query: empty answer")
	}
	return res, nil
}

// buildStores writes one site store per host of web under dir.
func buildStores(dir string, web *webgraph.Web) error {
	get := func(u string) ([]byte, error) {
		html, ok := web.HTML(u)
		if !ok {
			return nil, fmt.Errorf("no page at %s", u)
		}
		return html, nil
	}
	for _, host := range web.Hosts() {
		st, err := store.Build(dir, host, web.URLsAt(host), get, store.Options{})
		if err != nil {
			return fmt.Errorf("build store of %s: %w", host, err)
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store of %s: %w", host, err)
		}
	}
	return nil
}

func countRows(tables []client.ResultTable) int {
	n := 0
	for _, t := range tables {
		n += len(t.Rows)
	}
	return n
}

// sameAnswer compares two answers stage by stage and row by row
// (Results sorts rows), without allocating, so checking an op adds
// nothing to allocs_per_op.
func sameAnswer(a, b []client.ResultTable) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Stage != b[i].Stage || len(a[i].Rows) != len(b[i].Rows) {
			return false
		}
		for k, ra := range a[i].Rows {
			rb := b[i].Rows[k]
			if len(ra) != len(rb) {
				return false
			}
			for c := range ra {
				if ra[c] != rb[c] {
					return false
				}
			}
		}
	}
	return true
}
