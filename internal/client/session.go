package client

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"

	"webdis/internal/disql"
	"webdis/internal/wire"
)

// ErrSessionClosed is returned by Session.Submit after Close.
var ErrSessionClosed = errors.New("client: session closed")

// Session multiplexes many concurrent queries over one Result Collector
// endpoint ("<base>/s<n>") and one connection pool. The paper gives each
// query its own listening socket; a multi-query user-site would exhaust
// endpoints (and handshakes) that way, so a session routes every report
// to its query by query id instead — the queries keep their own CHTs,
// reapers and result tables untouched.
//
// Termination semantics shift one level up: a finished query leaves the
// routing table, so its straggler reports are dropped by the router
// rather than failing at the sender (servers only see sends fail — and
// purge passively, Section 2.8 — once the whole session closes). The
// queries' CHT accounting is indifferent: a dropped straggler was
// already accounted or reaped.
type Session struct {
	c *Client
	*collector

	mu      sync.Mutex
	conns   map[net.Conn]bool
	queries map[int]*Query
	closed  bool
}

// NewSession opens a multi-query session: one collector endpoint and
// connection pool shared by every query submitted through it.
func (c *Client) NewSession() (*Session, error) {
	c.mu.Lock()
	c.sessions++
	n := c.sessions
	c.mu.Unlock()
	col, err := c.openCollector(fmt.Sprintf("s%d", n))
	if err != nil {
		return nil, fmt.Errorf("client: session collector: %w", err)
	}
	s := &Session{
		c:         c,
		collector: col,
		conns:     make(map[net.Conn]bool),
		queries:   make(map[int]*Query),
	}
	go s.accept()
	return s, nil
}

// Endpoint returns the session's collector endpoint name.
func (s *Session) Endpoint() string { return s.endpoint }

// Submit dispatches a web-query whose results are collected over the
// session's shared endpoint. Queries from one session run concurrently;
// Wait on each Query as usual.
func (s *Session) Submit(w *disql.WebQuery) (*Query, error) {
	return s.c.submit(w, wire.Budget{}, s, nil)
}

// SubmitBudget is Submit with a wire-carried resource budget (see
// Client.SubmitBudget).
func (s *Session) SubmitBudget(w *disql.WebQuery, b wire.Budget) (*Query, error) {
	return s.c.submit(w, b, s, nil)
}

// SubmitContext is Submit bound to ctx: when ctx ends before the query
// completes, the query is actively stopped and cancelled (see
// Client.SubmitContext). The session itself stays open.
func (s *Session) SubmitContext(ctx context.Context, w *disql.WebQuery) (*Query, error) {
	return s.SubmitBudgetContext(ctx, w, wire.Budget{})
}

// SubmitBudgetContext is SubmitContext with a resource budget.
func (s *Session) SubmitBudgetContext(ctx context.Context, w *disql.WebQuery, b wire.Budget) (*Query, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := s.c.submit(w, b, s, nil)
	if err != nil {
		return nil, err
	}
	q.watch(ctx)
	return q, nil
}

// register adds a query to the routing table.
func (s *Session) register(q *Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.queries[q.id.Num] = q
	return nil
}

// detach removes a finished query from the routing table. Stragglers
// addressed to it are dropped by the router from then on.
func (s *Session) detach(num int) {
	s.mu.Lock()
	delete(s.queries, num)
	s.mu.Unlock()
}

// lookup resolves a query id to its live query, or nil.
func (s *Session) lookup(num int) *Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[num]
}

// accept runs the session's Result Collector: every frame is routed to
// its query by id. The query is resolved outside any per-query lock, so
// routing for one query never blocks on another's merge.
func (s *Session) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			framed := wire.NewFramedOpts(conn, s.c.frameOpts())
			for {
				msg, err := wire.Receive(framed)
				if err != nil {
					return
				}
				switch m := msg.(type) {
				case *wire.ResultMsg:
					if q := s.lookup(m.ID.Num); q != nil {
						q.merge(m)
					}
				case *wire.BounceMsg:
					if q := s.lookup(m.Clone.ID.Num); q != nil {
						q.bounced(m.Clone)
					}
				case *wire.ShedMsg:
					if q := s.lookup(m.Clone.ID.Num); q != nil {
						q.shedded(m)
					}
				}
			}
		}()
	}
}

// Live returns the number of queries still registered with the session.
func (s *Session) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queries)
}

// Close shuts the session down: the shared endpoint and pool close (so
// any further report fails at its sender — passive termination for the
// whole session) and every still-running query is cancelled.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := slices.Collect(maps.Keys(s.conns))
	queries := slices.Collect(maps.Values(s.queries))
	s.mu.Unlock()
	s.close(conns)
	// Cancel outside s.mu: each cancel re-enters detach.
	for _, q := range queries {
		q.Cancel()
	}
}
