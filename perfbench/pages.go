package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// rtt is every link's round-trip latency: the paper's same-data-center
// configuration.
const rtt = 500 * time.Microsecond

var apps = []bench.AppID{bench.Itracker, bench.OpenMRS}

// refPage is a page rendered in original mode: eager, one statement per
// round trip, synchronous, no merge, unsharded.
type refPage struct {
	html  string
	trips int64
}

// reference renders every page of an app in original mode on its own
// freshly seeded environment. It is the oracle the timed Sloth loads are
// compared against, so it shares no state with them.
func reference(id bench.AppID, scale int) (map[string]refPage, []string, error) {
	env, err := bench.NewEnvSharded(id, scale, 1)
	if err != nil {
		return nil, nil, err
	}
	clock := netsim.NewVirtualClock()
	conn := env.Srv.Connect(netsim.NewLink(clock, rtt))
	store := querystore.NewWithDispatcher(conn, querystore.Config{}, dispatch.NewSync(conn))
	defer store.Close()
	sess := orm.NewSession(store, orm.ModeOriginal)
	refs := make(map[string]refPage)
	for _, page := range env.Pages() {
		sess.Clear()
		trips := conn.Link().Stats().RoundTrips
		res, err := env.LoadInto(page, sess)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s %q: %w", id, page, err)
		}
		refs[page] = refPage{html: res.HTML, trips: conn.Link().Stats().RoundTrips - trips}
	}
	return refs, env.Pages(), nil
}

// pageRef names one page of one app.
type pageRef struct {
	app  bench.AppID
	page string
}

// golden holds the oracle for both apps at one scale, and every page in a
// fixed order the workloads shuffle from.
type golden struct {
	refs map[bench.AppID]map[string]refPage
	seq  []pageRef
}

func newGolden(scale int) (*golden, error) {
	g := &golden{refs: make(map[bench.AppID]map[string]refPage)}
	for _, id := range apps {
		refs, pages, err := reference(id, scale)
		if err != nil {
			return nil, err
		}
		g.refs[id] = refs
		for _, p := range pages {
			g.seq = append(g.seq, pageRef{id, p})
		}
	}
	return g, nil
}

// check compares one timed load with the oracle; checkTrips adds the
// round-trip property.
func (g *golden) check(log *opLog, op int, pr pageRef, html string, trips int64, checkTrips bool) {
	ref := g.refs[pr.app][pr.page]
	if html != ref.html {
		log.problem("op %d: %s page %q renders %d bytes that differ from the original-mode rendering (%d bytes)",
			op, pr.app, pr.page, len(html), len(ref.html))
	}
	if checkTrips && trips > ref.trips {
		log.problem("op %d: %s page %q took %d round trips, original mode takes %d",
			op, pr.app, pr.page, trips, ref.trips)
	}
}

// visit is the access-log row soak-shared writes once per page load.
type visit struct {
	ID      int64 `orm:"id,pk"`
	Session int64 `orm:"session_id"`
	Page    int64 `orm:"page_id"`
}

const visitTable = "perf_visit_log"

var visitMeta = orm.MustRegister[visit](visitTable)

// pageSession is one user: a virtual clock, a link, a query store over a
// caller-chosen dispatcher, and an ORM session in Sloth mode.
type pageSession struct {
	env   *bench.Env
	clock *netsim.VirtualClock
	store *querystore.Store
	sess  *orm.Session
	tr    *tracer
	op    int // the op span in progress, parent of dispatch spans
}

func newPageSession(env *bench.Env, tr *tracer, cfg querystore.Config, disp func(*driver.Conn, *int) dispatch.Dispatcher) *pageSession {
	s := &pageSession{env: env, clock: netsim.NewVirtualClock(), tr: tr, op: -1}
	conn := env.Srv.Connect(netsim.NewLink(s.clock, rtt))
	s.store = querystore.NewWithDispatcher(conn, cfg, traceDispatcher(tr, &s.op, disp(conn, &s.op)))
	s.sess = orm.NewSession(s.store, orm.ModeSloth)
	return s
}

// loaded is what one page load returned.
type loaded struct {
	html       string
	trips      int64
	host, virt time.Duration
	err        error
}

// load runs one op: a page load and, when v is not nil, its visit-log
// write. Only the load and the write are inside the op's timed span.
func (s *pageSession) load(page string, v *visit) loaded {
	s.sess.Clear() // the identity map is per request
	link := s.store.Conn().Link()
	trips := link.Stats().RoundTrips
	virt := s.clock.Now()
	s.op = s.tr.open("op", -1)
	start := hostNow()
	res, err := s.env.LoadInto(page, s.sess)
	if err == nil && v != nil {
		err = visitMeta.Insert(s.sess, v)
	}
	out := loaded{host: hostNow().Sub(start), err: err}
	s.tr.close(s.op)
	s.op = -1
	out.virt = s.clock.Now() - virt
	out.trips = link.Stats().RoundTrips - trips
	if err == nil {
		out.html = res.HTML
	}
	return out
}

// pageName applies the error hook: the op numbered badOp asks for a page
// no app has, which the program must reject.
func (cfg config) pageName(op int, page string) string {
	if op == cfg.hooks.badOp {
		return "no-such-page"
	}
	return page
}

// suitePaper replays all 150 golden pages per pass in Sloth mode with the
// paper's configuration: sync dispatch, merge off, one shard, one worker,
// data scale 1, on environments seeded afresh for every pass.
func suitePaper(cfg config) (*outcome, error) {
	g, err := newGolden(1)
	if err != nil {
		return nil, err
	}
	out := newOutcome(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	op := 0
	for pass := 0; pass < cfg.rounds; pass++ {
		runtime.GC()
		start := hostNow()
		sessions := make(map[bench.AppID]*pageSession)
		for _, id := range apps {
			env, err := bench.NewEnvSharded(id, 1, 1)
			if err != nil {
				return nil, err
			}
			sessions[id] = newPageSession(env, out.tr, querystore.Config{}, func(c *driver.Conn, _ *int) dispatch.Dispatcher {
				return dispatch.NewSync(c)
			})
		}
		out.setup = append(out.setup, hostNow().Sub(start))

		count := func() counters {
			var c counters
			for _, id := range apps {
				s := sessions[id]
				c.store(s.store, s.sess)
				c.server(s.env.Srv)
				c.plans(s.env.DB)
			}
			return c
		}
		clocks := make(map[bench.AppID]time.Duration)
		for _, id := range apps {
			clocks[id] = sessions[id].clock.Now()
		}
		rng.Shuffle(len(g.seq), func(i, j int) { g.seq[i], g.seq[j] = g.seq[j], g.seq[i] })
		out.m.begin(count())
		for _, pr := range g.seq {
			op++
			r := sessions[pr.app].load(cfg.pageName(op, pr.page), nil)
			if out.add(r.host, r.virt, r.err) {
				g.check(&out.log, op, pr, cfg.hooks.output(op, r.html), r.trips, true)
			}
		}
		if err := out.m.end(count()); err != nil {
			return nil, err
		}
		for _, id := range apps {
			s := sessions[id]
			out.makespan += s.clock.Now() - clocks[id]
			out.maxBatch = max(out.maxBatch, s.store.Stats().MaxBatch)
			if err := s.store.Close(); err != nil {
				return nil, fmt.Errorf("pass %d: close %s store: %w", pass, id, err)
			}
		}
	}
	return out, nil
}

// soakScale, soakShards and soakWorkers shape soak-shared's long-lived
// servers; soakSessions users of each app run in lockstep.
const (
	soakScale    = 4
	soakShards   = 2
	soakWorkers  = 2
	soakSessions = 2
	soakSetups   = 15
)

// soakApp is one app's long-lived server with its shared hub and users.
type soakApp struct {
	env      *bench.Env
	hub      *dispatch.Hub
	hubLink  *netsim.Link
	sessions []*pageSession
	loads    int64 // successful page loads, one visit row each
}

// newSoakApp wires an app the way Env.LoadPageHTML wires shared dispatch
// with merging on: the hub's merge stage has every family on and the
// shard router wired, and the sessions' own stages (which see only
// write-containing batches) are the same.
func newSoakApp(id bench.AppID, tr *tracer) (*soakApp, error) {
	env, err := bench.NewEnvSharded(id, soakScale, soakShards)
	if err != nil {
		return nil, err
	}
	env.Srv.SetWorkers(soakWorkers)
	// Created in the engine directly, like the seed fixtures, so no
	// session's timeline pays for the DDL.
	if _, err := env.Srv.DB().NewSession().Exec("CREATE TABLE " + visitTable + " (id INT PRIMARY KEY, session_id INT, page_id INT)"); err != nil {
		return nil, err
	}
	mcfg := merge.Config{Enabled: true, ShardOf: env.DB.ShardRouter()}
	a := &soakApp{env: env, hubLink: netsim.NewLink(netsim.NewVirtualClock(), rtt)}
	a.hub = dispatch.NewHub(env.Srv.Connect(a.hubLink), 0, traceStage(tr, nil, dispatch.MergeStage(merge.New(mcfg))))
	a.hub.SetWindow(soakSessions)
	qcfg := querystore.Config{PipelineWrites: true}
	for i := 0; i < soakSessions; i++ {
		s := newPageSession(env, tr, qcfg, func(c *driver.Conn, op *int) dispatch.Dispatcher {
			return dispatch.NewShared(a.hub, c, traceStage(tr, op, dispatch.MergeStage(merge.New(mcfg))))
		})
		a.sessions = append(a.sessions, s)
	}
	return a, nil
}

func (a *soakApp) count(c *counters) {
	for _, s := range a.sessions {
		c.store(s.store, s.sess)
	}
	c.link(a.hubLink)
	c.hub(a.hub)
	c.server(a.env.Srv)
	c.plans(a.env.DB)
}

// step has every session load the same page at once, the shape in which
// the hub coalesces identical lookups, then drains the window so no
// window mixes two steps.
func (a *soakApp) step(page string, step int64) []loaded {
	out := make([]loaded, len(a.sessions))
	var wg sync.WaitGroup
	for i, s := range a.sessions {
		wg.Add(1)
		go func(i int, s *pageSession) {
			defer wg.Done()
			out[i] = s.load(page, &visit{ID: step*int64(len(a.sessions)) + int64(i), Session: int64(i), Page: step})
			if out[i].err != nil {
				// The failed session will not fill its windows; release
				// the others' parked waits.
				a.hub.SetWindow(0)
				a.hub.CloseWindow()
			}
		}(i, s)
	}
	wg.Wait()
	a.hub.CloseWindow()
	a.hub.SetWindow(len(a.sessions))
	return out
}

// soakShared runs soakSessions users per app in lockstep against one
// long-lived, sharded, multi-worker server per app for the whole run.
func soakShared(cfg config) (*outcome, error) {
	g, err := newGolden(soakScale)
	if err != nil {
		return nil, err
	}
	out := newOutcome(cfg)
	var rig map[bench.AppID]*soakApp
	for i := 0; i < soakSetups; i++ {
		runtime.GC()
		start := hostNow()
		rig = make(map[bench.AppID]*soakApp)
		for _, id := range apps {
			a, err := newSoakApp(id, out.tr)
			if err != nil {
				return nil, err
			}
			rig[id] = a
		}
		out.setup = append(out.setup, hostNow().Sub(start))
	}
	count := func() counters {
		var c counters
		for _, id := range apps {
			rig[id].count(&c)
		}
		return c
	}
	clocks := make(map[*pageSession]time.Duration)
	for _, id := range apps {
		for _, s := range rig[id].sessions {
			clocks[s] = s.clock.Now()
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	op, steps := 0, int64(0)
	for round := 0; round < cfg.rounds; round++ {
		rng.Shuffle(len(g.seq), func(i, j int) { g.seq[i], g.seq[j] = g.seq[j], g.seq[i] })
		// Each round is an interval of its own; the servers live on.
		out.m.begin(count())
		for _, pr := range g.seq {
			a := rig[pr.app]
			steps++
			page := cfg.pageName(op+1, pr.page)
			for _, r := range a.step(page, steps) {
				op++
				if out.add(r.host, r.virt, r.err) {
					a.loads++
					g.check(&out.log, op, pr, cfg.hooks.output(op, r.html), r.trips, false)
				}
			}
		}
		if err := out.m.end(count()); err != nil {
			return nil, err
		}
	}

	for _, id := range apps {
		a := rig[id]
		var span time.Duration
		for _, s := range a.sessions {
			// Collect the in-flight pipelined writes before counting them.
			if err := s.store.Close(); err != nil {
				return nil, fmt.Errorf("close %s store: %w", id, err)
			}
			span = max(span, s.clock.Now()-clocks[s])
			out.maxBatch = max(out.maxBatch, s.store.Stats().MaxBatch)
		}
		out.makespan += span
		rs, err := a.env.Srv.DB().NewSession().Exec("SELECT COUNT(*) AS n FROM " + visitTable)
		if err != nil {
			return nil, fmt.Errorf("count %s visits: %w", id, err)
		}
		if n, _ := rs.Int(0, "n"); n != a.loads {
			out.log.problem("%s visit log holds %d rows for %d page loads", id, n, a.loads)
		}
	}
	return out, nil
}
