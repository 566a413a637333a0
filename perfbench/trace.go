package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/sqldb"
)

// span is one host-time interval recorded at a layer boundary, in
// nanoseconds since the tracer started. parent is the index of the
// enclosing span, or -1 when there is none (or, for the shared hub's
// merge stage, when a window serves several sessions' ops at once).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is how the untraced runs go.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// Statements into and out of the merge stages, counted where the
	// rewrite happens.
	mergeIn, mergeOut int64
}

func newTracer() *tracer { return &tracer{epoch: hostNow()} }

func (t *tracer) now() int64 { return int64(hostNow().Sub(t.epoch)) }

// open starts a span and returns its index for children and close.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

func (t *tracer) record(name string, start, end int64, parent int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	t.mu.Unlock()
}

// meanUs is the mean duration of the named spans in microseconds.
func (t *tracer) meanUs(name string) float64 {
	if t == nil {
		return 0
	}
	var n, total int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			n++
			total += s.End - s.Start
		}
	}
	return ratio(float64(total)/1e3, float64(n))
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("perfbench: spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	return f.Close()
}

// tracedDispatcher records a "dispatch" span from each Submit until the
// Wait for its ticket returns, under the op the owning session is
// running.
type tracedDispatcher struct {
	dispatch.Dispatcher
	tr    *tracer
	op    *int // the owning session's current op span
	mu    sync.Mutex
	start map[*dispatch.Ticket]int64
}

// traceDispatcher wraps d when tracing; untraced runs use d itself.
func traceDispatcher(tr *tracer, op *int, d dispatch.Dispatcher) dispatch.Dispatcher {
	if tr == nil {
		return d
	}
	return &tracedDispatcher{Dispatcher: d, tr: tr, op: op, start: make(map[*dispatch.Ticket]int64)}
}

func (d *tracedDispatcher) Submit(stmts []driver.Stmt) *dispatch.Ticket {
	start := d.tr.now()
	t := d.Dispatcher.Submit(stmts)
	d.mu.Lock()
	d.start[t] = start
	d.mu.Unlock()
	return t
}

func (d *tracedDispatcher) Wait(t *dispatch.Ticket) ([]*sqldb.ResultSet, dispatch.BatchStats, error) {
	rs, bs, err := d.Dispatcher.Wait(t)
	end := d.tr.now()
	d.mu.Lock()
	start := d.start[t]
	delete(d.start, t)
	d.mu.Unlock()
	d.tr.record("dispatch", start, end, *d.op)
	return rs, bs, err
}

// tracedStage records "merge.rewrite" around Apply and "merge.demux"
// around the demux that Apply returns.
type tracedStage struct {
	inner dispatch.Stage
	tr    *tracer
	op    *int // nil for the hub's stage, which serves every session
}

// traceStage wraps s when tracing; untraced runs use s itself.
func traceStage(tr *tracer, op *int, s dispatch.Stage) dispatch.Stage {
	if tr == nil {
		return s
	}
	return tracedStage{inner: s, tr: tr, op: op}
}

func (s tracedStage) parent() int {
	if s.op == nil {
		return -1
	}
	return *s.op
}

func (s tracedStage) Apply(stmts []driver.Stmt) ([]driver.Stmt, dispatch.Demux, dispatch.StageStats) {
	start := s.tr.now()
	out, demux, ss := s.inner.Apply(stmts)
	s.tr.record("merge.rewrite", start, s.tr.now(), s.parent())
	s.tr.mu.Lock()
	s.tr.mergeIn += int64(len(stmts))
	s.tr.mergeOut += int64(len(out))
	s.tr.mu.Unlock()
	if demux == nil {
		return out, nil, ss
	}
	parent := s.parent()
	return out, func(rs []*sqldb.ResultSet) ([]*sqldb.ResultSet, error) {
		start := s.tr.now()
		res, err := demux(rs)
		s.tr.record("merge.demux", start, s.tr.now(), parent)
		return res, err
	}, ss
}
