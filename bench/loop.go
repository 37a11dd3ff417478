package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/client"
	"webdis/internal/wire"
)

// counters is a flat snapshot of every cumulative counter the benchmark
// reads: engine metrics ("server.<Field>"), transport traffic ("net.*")
// and the Go runtime ("rt.*").
type counters map[string]float64

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (inst *instance) counters() counters {
	c := counters{}
	snap := reflect.ValueOf(inst.d.Metrics().Snapshot())
	for i := 0; i < snap.NumField(); i++ {
		c["server."+snap.Type().Field(i).Name] = float64(snap.Field(i).Int())
	}
	tot := inst.net.Snapshot().Total()
	c["net.bytes"] = float64(tot.Bytes)
	c["net.msgs"] = float64(tot.Messages)
	c["net.dials"] = float64(tot.Dials)
	c["net.refused"] = float64(tot.Refused)
	c["net.clone"] = float64(tot.ByKind[wire.KindClone])
	c["net.result"] = float64(tot.ByKind[wire.KindResult])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["rt.mallocs"] = float64(ms.Mallocs)
	c["rt.gc"] = float64(ms.NumGC)
	metrics.Read(rtSamples)
	c["rt.gc_cpu_s"] = rtSamples[0].Value.Float64()
	c["rt.cpu_s"] = rtSamples[1].Value.Float64()
	return c
}

// minus returns c - o, field by field.
func (c counters) minus(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// window is one measurement window of a closed-loop run.
type window struct {
	ops     []sample // every op, all clients
	checks  []sample // out-of-window checkpoints
	elapsed time.Duration
	delta   counters // counter growth over the ops alone
}

// failed counts failed ops and checkpoints.
func (w *window) failed() int {
	n := 0
	for _, s := range w.ops {
		if s.err != nil {
			n++
		}
	}
	for _, s := range w.checks {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (w *window) attempted() int { return len(w.ops) + len(w.checks) }

// logFailures prints the first few failures, with the layer counters
// that place them, to standard error.
func (w *window) logFailures(name string) {
	shown := 0
	for _, s := range append(append([]sample(nil), w.ops...), w.checks...) {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, s.err)
			shown++
		}
	}
	if shown > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d failed; retries %.0f, forward_failed %.0f, refused %.0f\n",
			name, w.failed(), w.attempted(), w.delta["server.Retries"], w.delta["server.ForwardFailed"], w.delta["net.refused"])
	}
}

// measure runs the workload's closed loop: each client goroutine issues
// its next op only after the previous one returned, until the window's
// op time reaches dur. The workload's checkpoints (single-client
// workloads only) run between ops, evenly spaced in op time, with the
// clock and the counters paused, plus one after the window. tr, when
// non-nil, gates every op for trace draining.
func measure(wl *workload, inst *instance, dur time.Duration, tr *tracer) *window {
	w := &window{}
	var (
		mu      sync.Mutex
		paused  atomic.Int64 // ns spent in checkpoints
		exclude = counters{} // counter growth inside checkpoints
	)
	checkpoint := func(inWindow bool) {
		t0 := time.Now()
		var c0 counters
		if inWindow {
			c0 = inst.counters()
		}
		var ss []sample
		for i := 0; i < checkQueries; i++ {
			ss = append(ss, inst.check())
		}
		if inWindow {
			for k, v := range inst.counters().minus(c0) {
				exclude[k] += v
			}
		}
		paused.Add(int64(time.Since(t0)))
		mu.Lock()
		w.checks = append(w.checks, ss...)
		mu.Unlock()
	}
	if tr != nil {
		tr.start()
	}
	c0 := inst.counters()
	start := time.Now()
	opTime := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	var wg sync.WaitGroup
	for i := 0; i < wl.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			every := dur / time.Duration(wl.checkpoints+1)
			next := every
			for opTime() < dur {
				if tr != nil {
					tr.begin()
				}
				s := inst.op()
				if tr != nil {
					tr.end(s)
				}
				local = append(local, s)
				if wl.checkpoints > 0 && opTime() >= next && next < dur {
					checkpoint(true)
					next += every
				}
			}
			mu.Lock()
			w.ops = append(w.ops, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = opTime()
	w.delta = inst.counters().minus(c0).minus(exclude)
	if tr != nil {
		tr.stop()
	}
	if inst.check != nil {
		checkpoint(false)
	}
	return w
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ms collects one duration field of the samples, in milliseconds,
// skipping zero values when nonzero is set.
func ms(ss []sample, f func(sample) time.Duration, nonzero bool) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if d := f(s); d > 0 || !nonzero {
			out = append(out, float64(d)/1e6)
		}
	}
	return out
}

// ok returns the samples that succeeded.
func ok(ss []sample) []sample {
	out := make([]sample, 0, len(ss))
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// heapLiveMiB returns the live heap after forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow set-up from moving the figure.
const setupRuns = 5

// endToEnd measures the end-to-end metrics of one untraced window.
func endToEnd(wl *workload, p params, dur time.Duration) (*report, error) {
	ref, err := reference(wl, p)
	if err != nil {
		return nil, err
	}
	var inst *instance
	times := make([]float64, 0, setupRuns)
	for n := 0; n < setupRuns; n++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = wl.setup(p, n, false, ref)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer inst.close()

	w := measure(wl, inst, dur, nil)
	rep := &report{Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = w.attempted(), w.failed()
	rep.Correct = rep.Failed == 0
	w.logFailures(wl.name)
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			rep.Correct = false
		}
	}

	n := float64(len(w.ops))
	good := ok(w.ops)
	lat := ms(good, func(s sample) time.Duration { return s.lat }, false)
	rep.set("ops_per_s", n/w.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	rep.set("latency_p95_ms", quantile(lat, 0.95), "ms")
	rep.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	firstRows := ms(queries(inst, w), func(s sample) time.Duration { return s.firstRow }, true)
	rep.set("first_row_p50_ms", quantile(firstRows, 0.50), "ms")
	rep.set("bytes_per_op", w.delta["net.bytes"]/n, "B")
	rep.set("msgs_per_op", w.delta["net.msgs"]/n, "count")
	rep.set("allocs_per_op", w.delta["rt.mallocs"]/n, "count")
	rep.set("heap_live_mib", heapLiveMiB(), "MiB")
	rep.set("setup_s", quantile(times, 0.50), "s")
	return rep, nil
}

// reference computes the workload's fixed answer, if it has one.
func reference(wl *workload, p params) ([]client.ResultTable, error) {
	if wl.reference == nil {
		return nil, nil
	}
	ref, err := wl.reference(p)
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", wl.name, err)
	}
	return ref, nil
}

// queries returns the window's successful queries: the ops of a query
// workload, or the checkpoint queries of the watch workload, whose ops
// are writes.
func queries(inst *instance, w *window) []sample {
	if inst.check != nil {
		return ok(w.checks)
	}
	return ok(w.ops)
}
