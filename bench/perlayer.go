package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"webdis/internal/core"
)

// probeSteps is the length of the write probe a query workload's
// per-layer run ends with.
const probeSteps = 20

// perLayer measures the per-layer metrics. The first half of the window
// runs untraced and yields the layer counters; then single layer
// functions are timed on the workload's inputs; the second half runs on
// a fresh deployment with tracing on and yields the span timings and the
// tracing overhead.
func perLayer(wl *workload, p params, dur time.Duration) (*report, error) {
	ref, err := reference(wl, p)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}, Correct: true}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		rep.Correct = false
	}

	inst, err := wl.setup(p, 0, false, ref)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	half := dur / 2
	w := measure(wl, inst, half, nil)
	w.logFailures(wl.name)
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			fail(err)
		}
	}
	layerCounters(rep, w, inst)
	untracedP50 := quantile(ms(ok(w.ops), func(s sample) time.Duration { return s.lat }, false), 0.50)
	if err := layerTimings(inst, rep, p.dir); err != nil {
		inst.close()
		return nil, fmt.Errorf("%s layer timings: %w", wl.name, err)
	}
	mutate := ms(ok(w.ops), func(s sample) time.Duration { return s.mutate }, true)
	wait := ms(ok(w.ops), func(s sample) time.Duration { return s.wait }, true)
	if len(mutate) == 0 {
		// A query workload: time writes against its own query and web.
		if mutate, wait, err = writeProbe(inst); err != nil {
			fail(err)
		}
	}
	rep.set("core.mutate_us", quantile(mutate, 0.50)*1e3, "us")
	rep.set("client.epoch_wait_us", quantile(wait, 0.50)*1e3, "us")
	inst.close()

	tinst, err := wl.setup(p, 1, true, ref)
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", wl.name, err)
	}
	defer tinst.close()
	tr := newTracer(tinst)
	tw := measure(wl, tinst, dur-half, tr)
	tw.logFailures(wl.name + " (traced)")
	if !tr.metrics(rep, tw, untracedP50) {
		rep.Correct = false
	}

	rep.Attempted = w.attempted() + tw.attempted()
	rep.Failed = w.failed() + tw.failed()
	if rep.Failed > 0 {
		rep.Correct = false
	}
	rep.set("failed_frac", float64(rep.Failed)/float64(rep.Attempted), "frac")
	return rep, nil
}

// layerCounters reports the engine, transport, client and runtime
// counters of an untraced window, per op or as ratios.
func layerCounters(rep *report, w *window, inst *instance) {
	d := w.delta
	n := float64(len(w.ops))
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(name, key string) { rep.set(name, d[key]/n, "count") }

	perOp("netsim.dials_per_op", "net.dials")
	perOp("netsim.clone_msgs_per_op", "net.clone")
	perOp("netsim.result_msgs_per_op", "net.result")
	perOp("netsim.refused_per_op", "net.refused")

	rep.set("server.forward_ms_per_op", d["server.ForwardNanos"]/1e6/n, "ms")
	rep.set("server.conn_reused_frac", frac(d["server.ConnReused"], d["server.ConnReused"]+d["server.ConnDialed"]), "frac")
	rep.set("server.db_cache_hit_frac", frac(d["server.DBCacheHits"], d["server.DBCacheHits"]+d["server.DocsParsed"]), "frac")
	perOp("server.evaluations_per_op", "server.Evaluations")
	rep.set("server.dead_end_frac", frac(d["server.DeadEnds"], d["server.Evaluations"]), "frac")
	perOp("server.dup_dropped_per_op", "server.DupDropped")
	perOp("server.dup_rewritten_per_op", "server.DupRewritten")
	perOp("server.docs_parsed_per_op", "server.DocsParsed")
	perOp("server.docs_invalidated_per_op", "server.DocsInvalidated")
	perOp("server.retries_per_op", "server.Retries")
	perOp("server.forward_failed_per_op", "server.ForwardFailed")

	perOp("plan.rows_scanned_per_op", "server.RowsScanned")
	rep.set("plan.emit_frac", frac(d["server.RowsEmitted"], d["server.RowsScanned"]), "frac")

	perOp("store.pages_read_per_op", "server.PagesRead")
	perOp("store.pages_evicted_per_op", "server.PagesEvicted")
	perOp("store.index_hits_per_op", "server.IndexHits")

	// Client protocol statistics exist per query. The watch's maintenance
	// queries are internal to it, so its CHT counts read 0, and its
	// checkpoint queries stand in for the first-row share.
	var entries, reports float64
	var shares []float64
	qs := queries(inst, w)
	for _, s := range qs {
		entries += float64(s.stats.EntriesAdded)
		reports += float64(s.stats.Reports)
		if s.stats.Duration > 0 {
			shares = append(shares, float64(s.stats.FirstRow)/float64(s.stats.Duration))
		}
	}
	if inst.check != nil {
		entries, reports = 0, 0
	}
	rep.set("client.cht_entries_per_op", frac(entries, float64(len(qs))), "count")
	rep.set("client.reports_per_op", frac(reports, float64(len(qs))), "count")
	rep.set("client.first_row_frac", quantile(shares, 0.50), "frac")

	rep.set("runtime.gc_cpu_frac", frac(d["rt.gc_cpu_s"], d["rt.cpu_s"]), "frac")
	perOp("runtime.gc_cycles_per_op", "rt.gc")

	rep.set("answer.rows", float64(countRows(inst.current())), "count")
	rep.set("web.pages", float64(inst.web.NumPages()), "count")
}

// writeProbe registers a standing watch on the workload's own query and
// times probeSteps edit steps: the time in Deployment.Mutate and the time
// WaitEpoch then waits, in ms. It runs last, as it changes the web.
func writeProbe(inst *instance) (mutate, wait []float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wa, err := inst.d.Watch(ctx, inst.src, core.WatchOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("write probe: %w", err)
	}
	defer wa.Close()
	epoch := 0
	for i := 0; i < probeSteps; i++ {
		t0 := time.Now()
		_, notified := inst.d.Mutate(1)
		t1 := time.Now()
		epoch += notified
		if err := wa.WaitEpoch(ctx, epoch); err != nil {
			return nil, nil, fmt.Errorf("write probe step %d: %w", i, err)
		}
		mutate = append(mutate, float64(t1.Sub(t0))/1e6)
		wait = append(wait, float64(time.Since(t1))/1e6)
	}
	return mutate, wait, nil
}
