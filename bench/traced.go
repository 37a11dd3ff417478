package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"webdis/internal/core"
	"webdis/internal/trace"
)

// tracer drains a traced deployment's journals during a measurement
// window and turns them into span timings. Ops hold a read lock; a
// drain takes the write lock, so it runs only between ops, waits for
// the finished queries' last events to land, and then flushes. The
// pauses fall outside every op's timing.
type tracer struct {
	d        *core.Deployment
	journals []*trace.Journal

	gate sync.RWMutex
	mu   sync.Mutex
	ops  []sample // ops finished since the last drain

	// Results, over the window.
	hops      []float64 // span Sent→Arrived, µs
	sites     []float64 // span Arrived→Done, µs
	crit      []float64 // per op: longest chain of hop+site time, µs
	tails     []float64 // per op: last span Done → op end, µs
	spans     int       // spans of the window's ops
	dropped   int64     // events lost to full rings
	unsettled int       // drains that timed out waiting for last events
}

func newTracer(inst *instance) *tracer {
	t := &tracer{d: inst.d}
	names := append(inst.web.Hosts(), "user", "(net)")
	for _, n := range names {
		if j := inst.d.Journal(n); j != nil {
			t.journals = append(t.journals, j)
		}
	}
	return t
}

// start discards the set-up's events.
func (t *tracer) start() { t.drain(true) }

func (t *tracer) begin() { t.gate.RLock() }

// end records a finished op and drains when some ring is half full.
func (t *tracer) end(s sample) {
	t.mu.Lock()
	t.ops = append(t.ops, s)
	t.mu.Unlock()
	t.gate.RUnlock()
	if t.full() {
		t.drain(false)
	}
}

// stop drains what the window left in the journals.
func (t *tracer) stop() { t.drain(true) }

func (t *tracer) full() bool {
	for _, j := range t.journals {
		if j.Len() > traceCapacity/2 {
			return true
		}
	}
	return false
}

func (t *tracer) drain(force bool) {
	t.gate.Lock()
	defer t.gate.Unlock()
	if !force && !t.full() {
		return // the other client drained first
	}
	// A site journals a clone's Result just after sending the report the
	// user-site completes on, so wait until every arrived span shows its
	// outcome before resetting the rings under it.
	deadline := time.Now().Add(2 * time.Second)
	for !settled(t.d.TraceEvents()) {
		if time.Now().After(deadline) {
			t.unsettled++
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, j := range t.journals {
		t.dropped += j.Dropped()
	}
	events := t.d.FlushTraces()
	t.mu.Lock()
	ops := t.ops
	t.ops = nil
	t.mu.Unlock()
	t.digest(events, ops)
}

type spanKey struct {
	query string
	span  string
}

// settled reports whether every span that arrived at a site has its
// site-side outcome (Result or Terminate) journaled.
func settled(events []trace.Event) bool {
	open := map[spanKey]bool{}
	for _, e := range events {
		if e.Query == "" || e.Span.IsZero() {
			continue
		}
		k := spanKey{e.Query, e.Span.String()}
		switch e.Kind {
		case trace.Arrive:
			if _, seen := open[k]; !seen {
				open[k] = true
			}
		case trace.Result, trace.Terminate:
			open[k] = false
		}
	}
	for _, o := range open {
		if o {
			return false
		}
	}
	return true
}

// digest reconstructs each query's journey and books its spans against
// the op it belongs to: by query id for query ops, by time window for
// watch steps (whose re-derivation queries the benchmark cannot name).
// Journeys of no op (checkpoint queries) are skipped.
func (t *tracer) digest(events []trace.Event, ops []sample) {
	byQuery := map[string][]trace.Event{}
	for _, e := range events {
		if e.Query != "" {
			byQuery[e.Query] = append(byQuery[e.Query], e)
		}
	}
	type opTrace struct {
		crit, last time.Duration
		seen       bool
	}
	per := make([]opTrace, len(ops))
	sort.Slice(ops, func(i, k int) bool { return ops[i].start < ops[k].start })
	byID := map[string]int{}
	for i, s := range ops {
		if s.qid != "" {
			byID[s.qid] = i
		}
	}
	for q, evs := range byQuery {
		jy := trace.BuildJourney(q, evs)
		if len(jy.Spans) == 0 {
			continue
		}
		first, last := time.Duration(-1), time.Duration(-1)
		for _, n := range jy.Spans {
			if n.Sent >= 0 && (first < 0 || n.Sent < first) {
				first = n.Sent
			}
			if n.Done > last {
				last = n.Done
			}
		}
		i, found := byID[q]
		if !found {
			i = sort.Search(len(ops), func(k int) bool { return ops[k].end >= first })
			found = i < len(ops) && ops[i].qid == "" && ops[i].start <= first
		}
		if !found {
			continue
		}
		for _, n := range jy.Spans {
			t.spans++
			if n.Sent >= 0 && n.Arrived >= 0 {
				t.hops = append(t.hops, us(n.Arrived-n.Sent))
			}
			if n.Arrived >= 0 && n.Done >= 0 {
				t.sites = append(t.sites, us(n.Done-n.Arrived))
			}
		}
		var chain func(n *trace.SpanNode) time.Duration
		chain = func(n *trace.SpanNode) time.Duration {
			var own, best time.Duration
			if n.Sent >= 0 && n.Arrived >= 0 && n.Done >= 0 {
				own = n.Done - n.Sent
			}
			for _, c := range n.Children {
				if d := chain(c); d > best {
					best = d
				}
			}
			return own + best
		}
		for _, r := range jy.Roots {
			if d := chain(r); d > per[i].crit {
				per[i].crit = d
			}
		}
		if last > per[i].last {
			per[i].last = last
		}
		per[i].seen = true
	}
	for i, s := range ops {
		if !per[i].seen || s.err != nil {
			continue
		}
		t.crit = append(t.crit, us(per[i].crit))
		t.tails = append(t.tails, us(s.end-per[i].last))
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metrics reports the traced window's span timings. untracedP50
// is the untraced window's median latency (ms), the base of the tracing
// overhead. spans must match the clone messages the window sent plus
// the clones sites queued for themselves; a mismatch, a dropped event
// or an unsettled drain means the trace is incomplete and fails the run.
func (t *tracer) metrics(rep *report, w *window, untracedP50 float64) bool {
	n := float64(len(w.ops))
	rep.set("trace.hop_us_p50", quantile(t.hops, 0.50), "us")
	rep.set("trace.hop_us_p95", quantile(t.hops, 0.95), "us")
	rep.set("trace.site_us_p50", quantile(t.sites, 0.50), "us")
	rep.set("trace.site_us_p95", quantile(t.sites, 0.95), "us")
	rep.set("trace.critical_path_us", quantile(t.crit, 0.50), "us")
	rep.set("trace.client_tail_us", quantile(t.tails, 0.50), "us")
	rep.set("trace.spans_per_op", float64(t.spans)/n, "count")
	rep.set("trace.journal_dropped", float64(t.dropped), "count")
	lat := ms(ok(w.ops), func(s sample) time.Duration { return s.lat }, false)
	rep.set("trace.overhead_frac", quantile(lat, 0.50)/untracedP50-1, "frac")

	want := w.delta["net.clone"] + w.delta["server.LocalClones"] + w.delta["server.ShipDataEdges"]
	good := true
	if float64(t.spans) != want {
		fmt.Fprintf(os.Stderr, "bench: traced window holds %d spans, but %.0f clones were sent (%.0f over the network)\n",
			t.spans, want, w.delta["net.clone"])
		good = false
	}
	if t.dropped != 0 || t.unsettled != 0 {
		fmt.Fprintf(os.Stderr, "bench: trace incomplete: %d events dropped, %d drains unsettled\n", t.dropped, t.unsettled)
		good = false
	}
	return good
}
