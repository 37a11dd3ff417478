package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/nodeproc"
	"webdis/internal/plan"
	"webdis/internal/relmodel"
	"webdis/internal/store"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// Layer timings call one public function of a layer, outside any
// deployment, on the workload's own inputs: its query text, its pages,
// its root clone and result frames shaped like its answer. Each figure
// is the median of single-call times in µs.

// layerRounds is how many times each timing visits its inputs.
const layerRounds = 5

// maxLayerPages caps the pages a timing visits (spread over the web).
const maxLayerPages = 64

func medianUS(xs []float64) float64 { return quantile(xs, 0.50) }

func timeCall(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return us(time.Since(t0)), err
}

// layerPages picks up to maxLayerPages of the web's pages, evenly spread.
func layerPages(web *webgraph.Web) []string {
	urls := web.URLs()
	if len(urls) <= maxLayerPages {
		return urls
	}
	out := make([]string, 0, maxLayerPages)
	for i := 0; i < maxLayerPages; i++ {
		out = append(out, urls[i*len(urls)/maxLayerPages])
	}
	return out
}

// layerTimings reports disql, nodeproc, plan, store and wire timings.
func layerTimings(inst *instance, rep *report, scratch string) error {
	wq, err := disql.Parse(inst.src)
	if err != nil {
		return err
	}
	var parse []float64
	for i := 0; i < 200*layerRounds; i++ {
		d, err := timeCall(func() error { _, err := disql.Parse(inst.src); return err })
		if err != nil {
			return err
		}
		parse = append(parse, d)
	}
	rep.set("disql.parse_us", medianUS(parse), "us")

	pages := layerPages(inst.web)
	html := make(map[string][]byte, len(pages))
	for _, u := range pages {
		h, ok := inst.web.HTML(u)
		if !ok {
			return fmt.Errorf("no page at %s", u)
		}
		html[u] = h
	}
	var build []float64
	dbs := make(map[string]*relmodel.DB, len(pages))
	for r := 0; r < layerRounds; r++ {
		for _, u := range pages {
			d, err := timeCall(func() error {
				db, err := nodeproc.BuildDB(u, html[u])
				dbs[u] = db
				return err
			})
			if err != nil {
				return err
			}
			build = append(build, d)
		}
	}
	rep.set("nodeproc.build_db_us", medianUS(build), "us")

	// Site stores: the workload's own, or for an in-RAM workload, stores
	// built here from its pages.
	dir := inst.storeDir
	if dir == "" {
		dir = filepath.Join(scratch, "layer-stores")
		if err := buildStores(dir, inst.web); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	var reads []float64
	for r := 0; r < layerRounds; r++ {
		for _, host := range inst.web.Hosts() {
			// A fresh open per round and site: every read starts cold, in a
			// pool the size of bigtree-store's.
			st, err := store.Open(dir, host, store.Options{PoolPages: bigtreePoolPages})
			if err != nil {
				return err
			}
			for _, u := range inst.web.URLsAt(host) {
				if _, ok := html[u]; !ok {
					continue
				}
				d, err := timeCall(func() error {
					db, err := st.DB(u)
					if inst.storeDir != "" {
						dbs[u] = db // plan.Eval runs on what the sites serve
					}
					return err
				})
				if err != nil {
					st.Close()
					return err
				}
				reads = append(reads, d)
			}
			st.Close()
		}
	}
	rep.set("store.db_read_us", medianUS(reads), "us")

	var eval []float64
	for r := 0; r < layerRounds; r++ {
		for _, u := range pages {
			for _, stage := range wq.Stages {
				if stage.Query == nil {
					continue
				}
				d, err := timeCall(func() error { _, _, err := plan.Eval(stage.Query, dbs[u], nil); return err })
				if err != nil {
					return err
				}
				eval = append(eval, d)
			}
		}
	}
	rep.set("plan.eval_us", medianUS(eval), "us")

	return wireTimings(inst, wq, pages, rep)
}

// rootClone builds the clone the user-site dispatches for the workload's
// query to its start site, with the planner's statistics hints drawn
// from the deployment's site counters (as result frames report them).
func rootClone(inst *instance, wq *disql.WebQuery, num int) *wire.CloneMsg {
	id := wire.QueryID{User: "user", Site: fmt.Sprintf("user/q%d", num), Num: num}
	state := wire.State{NumQ: len(wq.Stages), Rem: wq.Stages[0].PRE.String()}
	snaps := inst.d.SiteSnapshots()
	sites := make([]string, 0, len(snaps))
	for s := range snaps {
		if s != "user" {
			sites = append(sites, s)
		}
	}
	sort.Strings(sites)
	var hints []wire.SiteStat
	for _, s := range sites {
		if len(hints) == wire.MaxHints {
			break
		}
		sn := snaps[s]
		hints = append(hints, wire.SiteStat{
			Site: s, Docs: sn.DocsParsed, DocBytes: sn.DocBytes, Evals: sn.Evaluations,
			RowsScanned: sn.RowsScanned, RowsEmitted: sn.RowsEmitted, Fanout: sn.TargetsAdded,
		})
	}
	msg := &wire.CloneMsg{
		ID: id, Rem: state.Rem, Stages: nodeproc.EncodeStages(wq.Stages), Hints: hints,
	}
	for i, u := range wq.Start {
		msg.Dest = append(msg.Dest, wire.DestNode{URL: u, Origin: id.Site, Seq: int64(i + 1)})
	}
	return msg
}

// resultFrame builds the report a site sends after processing one page:
// the retired CHT entry, one child entry per link, and the page's rows
// of the workload's answer.
func resultFrame(inst *instance, wq *disql.WebQuery, u string, answer []client.ResultTable, num int) *wire.ResultMsg {
	id := wire.QueryID{User: "user", Site: fmt.Sprintf("user/q%d", num), Num: num}
	state := wire.State{NumQ: len(wq.Stages), Rem: wq.Stages[0].PRE.String()}
	up := wire.CHTUpdate{Processed: wire.CHTEntry{Node: u, State: state, Origin: id.Site, Seq: 1}}
	p := inst.web.Page(u)
	for i, it := range p.Items {
		if it.Kind == webgraph.Anchor {
			up.Children = append(up.Children, wire.CHTEntry{
				Node: webgraph.Resolve(u, it.Href), State: state, Origin: webgraph.Host(u), Seq: int64(i + 1),
			})
		}
	}
	msg := &wire.ResultMsg{ID: id, Updates: []wire.CHTUpdate{up}, Site: webgraph.Host(u)}
	for _, t := range answer {
		var rows [][]string
		for _, r := range t.Rows {
			if len(r) > 0 && r[0] == u {
				rows = append(rows, r)
			}
		}
		if len(rows) > 0 {
			msg.Tables = append(msg.Tables, wire.NodeTable{Node: u, Stage: t.Stage, Cols: t.Cols, Rows: rows})
		}
	}
	return msg
}

// stampConn records when the session first writes a frame and when it
// last read bytes, which splits a Send into encoding and a Receive into
// decoding.
type stampConn struct {
	net.Conn
	armed      bool
	firstWrite time.Time
	lastRead   time.Time
}

func (c *stampConn) Write(p []byte) (int, error) {
	if c.armed {
		c.firstWrite, c.armed = time.Now(), false
	}
	return c.Conn.Write(p)
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead = time.Now()
	return n, err
}

// frameTimes sends msgs through a pair of wire sessions over net.Pipe and
// returns the encode times (Send start to first write) and decode times
// (last read to Receive return), in µs. The first frames negotiate the
// session and are not timed.
func frameTimes(msgs []any) (enc, dec []float64, err error) {
	const warm = 4
	a, b := net.Pipe()
	sa, sb := &stampConn{Conn: a}, &stampConn{Conn: b}
	fa, fb := wire.NewFramed(sa), wire.NewFramed(sb)
	defer fb.Close()
	defer fa.Close()
	type rx struct {
		dec []float64
		err error
	}
	done := make(chan rx, 1)
	go func() {
		var out rx
		for i := range msgs {
			if _, out.err = wire.Receive(fb); out.err != nil {
				break
			}
			if i >= warm {
				out.dec = append(out.dec, us(time.Since(sb.lastRead)))
			}
		}
		done <- out
	}()
	for i, m := range msgs {
		sa.armed = true
		t0 := time.Now()
		if err := wire.Send(fa, m); err != nil {
			fa.Close() // unblocks the receiver
			<-done
			return nil, nil, err
		}
		if i >= warm {
			enc = append(enc, us(sa.firstWrite.Sub(t0)))
		}
	}
	r := <-done
	return enc, r.dec, r.err
}

func wireTimings(inst *instance, wq *disql.WebQuery, pages []string, rep *report) error {
	answer := inst.current()
	rep.set("wire.clone_frame_bytes", float64(wire.EncodedSize(rootClone(inst, wq, 1))), "B")

	// Every frame belongs to a new query, as on a pooled connection that
	// carries one query after another.
	var clones, results []any
	for i := 0; i < 400; i++ {
		clones = append(clones, rootClone(inst, wq, i+1))
	}
	for r := 0; r < layerRounds; r++ {
		for i, u := range pages {
			results = append(results, resultFrame(inst, wq, u, answer, r*len(pages)+i+1))
		}
	}
	enc, dec, err := frameTimes(clones)
	if err != nil {
		return fmt.Errorf("clone frames: %w", err)
	}
	rep.set("wire.clone_encode_us", medianUS(enc), "us")
	rep.set("wire.clone_decode_us", medianUS(dec), "us")
	enc, dec, err = frameTimes(results)
	if err != nil {
		return fmt.Errorf("result frames: %w", err)
	}
	rep.set("wire.result_encode_us", medianUS(enc), "us")
	rep.set("wire.result_decode_us", medianUS(dec), "us")
	return nil
}
