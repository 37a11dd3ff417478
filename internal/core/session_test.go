package core

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// The deployment's waited queries (Run, RunContext, watch baselines and
// re-derivations) share the client's default session: one pooled
// collector endpoint instead of one per query. These tests pin that
// sharing over the pipe fabric and real TCP.

// sessionFabrics names the two transports every session test covers;
// nil means the deployment's own pipe fabric.
var sessionFabrics = []struct {
	name string
	tr   func() netsim.Transport
}{
	{"pipe", func() netsim.Transport { return nil }},
	{"tcp", func() netsim.Transport { return netsim.NewTCP() }},
}

// sessionTree is the 40-site tree of the hot-path benchmark and its
// marker query.
func sessionTree() (*webgraph.Web, string) {
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 1, MarkerFrac: 0.6, FillerWords: 30, Seed: 7})
	return web, fmt.Sprintf(`select d.url from document d such that %q N|(G*3) d where d.text contains %q`,
		web.First(), webgraph.Marker)
}

func sessionDeploy(t *testing.T, web *webgraph.Web, tr netsim.Transport) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{Web: web, Transport: tr, Server: server.Options{CacheDBs: true}, NoDocService: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestRunReusesSessionConnections checks that steady-state Runs dial
// nothing — every result frame rides a pooled session connection — and
// that their answers equal the per-query Submit path's.
func TestRunReusesSessionConnections(t *testing.T) {
	for _, fab := range sessionFabrics {
		t.Run(fab.name, func(t *testing.T) {
			web, src := sessionTree()
			d := sessionDeploy(t, web, fab.tr())
			for i := 0; i < 5; i++ {
				run(t, d, src)
			}
			before := d.Metrics().Snapshot()
			var got []client.ResultTable
			for i := 0; i < 10; i++ {
				got = run(t, d, src).Results()
			}
			after := d.Metrics().Snapshot()
			if dialed := after.ConnDialed - before.ConnDialed; dialed != 0 {
				t.Errorf("10 steady-state Runs dialed %d connections, want 0", dialed)
			}
			if after.ConnReused == before.ConnReused {
				t.Error("steady-state Runs reused no connection")
			}
			q, err := d.SubmitDISQL(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Wait(waitFor); err != nil {
				t.Fatal(err)
			}
			if want := q.Results(); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("Run answer %v differs from per-query Submit answer %v", got, want)
			}
		})
	}
}

// slowTCP is real TCP whose dialed connections delay every write: a
// latency chain over sockets, standing in for the pipe fabric's Latency.
type slowTCP struct {
	*netsim.TCPTransport
	delay time.Duration
}

func (s slowTCP) Dial(from, to string) (net.Conn, error) {
	c, err := s.TCPTransport.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return slowConn{c, s.delay}, nil
}

type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestRunTimeoutStopsActively pins the deadline path: the session drops
// a finished query's stragglers at its router, so no send fails and
// passive termination never fires; a timed-out Run must stop the
// traversal actively instead, and leave nothing registered.
func TestRunTimeoutStopsActively(t *testing.T) {
	const latency = 3 * time.Millisecond
	for _, fab := range sessionFabrics {
		t.Run(fab.name, func(t *testing.T) {
			cfg := Config{Web: webgraph.Chain(40, 1, 3)}
			if fab.name == "pipe" {
				cfg.Net = netsim.Options{Latency: latency}
			} else {
				cfg.Transport = slowTCP{netsim.NewTCP(), latency}
			}
			d, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			q, err := d.Run(`select d.url from document d such that "http://c0.example/p0.html" N|G* d`,
				20*time.Millisecond)
			if !errors.Is(err, client.ErrTimeout) {
				t.Fatalf("Run = %v, want ErrTimeout", err)
			}
			if !q.Stopped() {
				t.Error("timed-out query was not stopped actively")
			}
			sess, err := d.Client().Session()
			if err != nil {
				t.Fatal(err)
			}
			if n := sess.Live(); n != 0 {
				t.Errorf("session still routes %d queries after the timeout", n)
			}
			// Let any clone that escaped the stop walk on: the traversal must
			// still end well before the chain does.
			time.Sleep(40 * latency)
			if n := d.Metrics().Evaluations.Load(); n >= 40 {
				t.Errorf("evaluations = %d; the timed-out traversal ran to the end of the chain", n)
			}
		})
	}
}

// TestConcurrentRunsOwnRows runs two different queries from two
// goroutines over the one session: each must get exactly its own rows.
func TestConcurrentRunsOwnRows(t *testing.T) {
	for _, fab := range sessionFabrics {
		t.Run(fab.name, func(t *testing.T) {
			web, _ := sessionTree()
			d := sessionDeploy(t, web, fab.tr())
			srcs := []string{
				`select d.url from document d such that "http://t1.example/p1.html" N|G d`,
				`select d.url from document d such that "http://t2.example/p2.html" N|G d`,
			}
			want := make([][]client.ResultTable, len(srcs))
			for i, src := range srcs {
				want[i] = run(t, d, src).Results()
			}
			if reflect.DeepEqual(want[0], want[1]) {
				t.Fatal("the two queries must have different answers")
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2*len(srcs))
			for i, src := range srcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 20; k++ {
						q, err := d.Run(src, waitFor)
						if err != nil {
							errs <- err
							return
						}
						if got := q.Results(); !reflect.DeepEqual(got, want[i]) {
							errs <- fmt.Errorf("query %d got %v, want %v", i, got, want[i])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// logEntries totals the log-table entries of every server replica.
func logEntries(d *Deployment) int {
	n := 0
	for _, reps := range d.servers {
		for _, s := range reps {
			n += s.LogTable().Len()
		}
	}
	return n
}

// TestRunForgetsLogEntries checks that a finished Run leaves nothing in
// the servers' log tables, so the tables do not grow with every query
// run, while a Submit's entries stay until a purge as before.
func TestRunForgetsLogEntries(t *testing.T) {
	for _, fab := range sessionFabrics {
		t.Run(fab.name, func(t *testing.T) {
			web, src := sessionTree()
			d := sessionDeploy(t, web, fab.tr())
			q, err := d.SubmitDISQL(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Wait(waitFor); err != nil {
				t.Fatal(err)
			}
			submitted := logEntries(d)
			if submitted == 0 {
				t.Fatal("a Submit logged no entries: the log table is not in use")
			}
			want := q.Results()
			for i := 0; i < 20; i++ {
				if got := run(t, d, src).Results(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Run %d answer %v differs from Submit answer %v", i, got, want)
				}
				if n := logEntries(d); n != submitted {
					t.Fatalf("after Run %d the log tables hold %d entries, want the Submit's %d", i, n, submitted)
				}
			}
		})
	}
}

// TestRunSessionNoLeak checks that 200 Runs and Close leave no
// goroutine behind: queries detach from the session as they finish,
// and Close releases the session's collector and connections.
func TestRunSessionNoLeak(t *testing.T) {
	for _, fab := range sessionFabrics {
		t.Run(fab.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			func() {
				web, src := sessionTree()
				d, err := NewDeployment(Config{Web: web, Transport: fab.tr(), Server: server.Options{CacheDBs: true}, NoDocService: true})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				for i := 0; i < 200; i++ {
					run(t, d, src)
				}
				sess, err := d.Client().Session()
				if err != nil {
					t.Fatal(err)
				}
				if n := sess.Live(); n != 0 {
					t.Errorf("session still routes %d finished queries", n)
				}
			}()
			if after := settledGoroutines(before); after > before+2 {
				t.Errorf("goroutines: %d before, %d after 200 Runs and Close (leak)", before, after)
			}
		})
	}
}
