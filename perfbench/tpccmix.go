package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"repro/internal/apps/tpcc"
	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// tpccDeck is one round of the mix at the TPC-C specification's minimum
// weights: 45 New-Order, 43 Payment, 4 each of Order-Status, Delivery and
// Stock-Level.
func tpccDeck() []string {
	var deck []string
	for _, w := range []struct {
		name string
		n    int
	}{{"New order", 45}, {"Payment", 43}, {"Order status", 4}, {"Delivery", 4}, {"Stock level", 4}} {
		for i := 0; i < w.n; i++ {
			deck = append(deck, w.name)
		}
	}
	return deck
}

// A run's rounds are long-lived databases served in turn, each for
// tpccDecks decks; tpccSetups set-ups are timed per database.
const (
	tpccDecks  = 4
	tpccSetups = 3
)

// tpccRig is one terminal on its own seeded database and server.
type tpccRig struct {
	db     *engine.DB
	srv    *driver.Server
	clock  *netsim.VirtualClock
	conn   *driver.Conn
	store  *querystore.Store // nil for the eager oracle
	client *tpcc.Client
	op     int
}

// newTPCCRig seeds a database and connects one terminal to it, through
// thunks over a query store (sloth) or one driver call per statement.
func newTPCCRig(cfg tpcc.Config, clientSeed int64, sloth bool, tr *tracer) (*tpccRig, error) {
	r := &tpccRig{db: engine.New(), clock: netsim.NewVirtualClock(), op: -1}
	if err := tpcc.Seed(r.db, cfg); err != nil {
		return nil, err
	}
	r.srv = driver.NewServer(r.db, netsim.NewVirtualClock(), driver.DefaultCostModel())
	r.conn = r.srv.Connect(netsim.NewLink(r.clock, rtt))
	var exec tpcc.Executor = tpcc.DirectExecutor{Conn: r.conn}
	if sloth {
		r.store = querystore.NewWithDispatcher(r.conn, querystore.Config{}, traceDispatcher(tr, &r.op, dispatch.NewSync(r.conn)))
		exec = tpcc.SlothExecutor{Store: r.store}
	}
	r.client = tpcc.NewClient(exec, cfg, clientSeed)
	return r, nil
}

func (r *tpccRig) count() counters {
	var c counters
	c.store(r.store, nil)
	c.server(r.srv)
	c.plans(r.db)
	return c
}

// tpccMix runs one terminal through the mix on each of cfg.rounds
// long-lived databases, then checks each database against an eager
// replay and the TPC-C consistency conditions.
func tpccMix(cfg config) (*outcome, error) {
	out := newOutcome(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	for rep := 0; rep < cfg.rounds; rep++ {
		if err := tpccRep(cfg, out, rng, rep*tpccDecks*len(tpccDeck())); err != nil {
			return nil, fmt.Errorf("database %d: %w", rep, err)
		}
	}
	return out, nil
}

// tpccRep runs tpccDecks decks on one database; ops before it in the
// run number firstOp.
func tpccRep(cfg config, out *outcome, rng *rand.Rand, firstOp int) error {
	clientSeed := 1 + rng.Int63n(1000)
	tc := tpcc.DefaultConfig()
	var rig *tpccRig
	for i := 0; i < tpccSetups; i++ {
		runtime.GC()
		start := hostNow()
		r, err := newTPCCRig(tc, clientSeed, true, out.tr)
		if err != nil {
			return err
		}
		rig = r
		out.setup = append(out.setup, hostNow().Sub(start))
	}
	seeded, err := readTPCCState(rig.db)
	if err != nil {
		return err
	}

	var names []string
	for i := 0; i < tpccDecks; i++ {
		deck := tpccDeck()
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		names = append(names, deck...)
	}
	if n := cfg.hooks.badOp - firstOp; n > 0 && n <= len(names) {
		names[n-1] = "no-such-transaction"
	}

	virt0 := rig.clock.Now()
	out.m.begin(rig.count())
	for _, name := range names {
		virt := rig.clock.Now()
		rig.op = out.tr.open("op", -1)
		start := hostNow()
		err := rig.client.Run(name)
		host := hostNow().Sub(start)
		out.tr.close(rig.op)
		rig.op = -1
		out.add(host, rig.clock.Now()-virt, err)
	}
	if err := out.m.end(rig.count()); err != nil {
		return err
	}
	out.makespan += rig.clock.Now() - virt0
	out.maxBatch = max(out.maxBatch, rig.store.Stats().MaxBatch)
	if err := rig.store.Close(); err != nil {
		return fmt.Errorf("close tpcc store: %w", err)
	}
	if cfg.hooks.alterDB != nil {
		if err := cfg.hooks.alterDB(rig.db); err != nil {
			return err
		}
	}

	// The oracle: the same client seed and transaction sequence, one
	// driver call per statement, on a database seeded separately. A
	// transaction that fails fails the same way in both.
	ref, err := newTPCCRig(tc, clientSeed, false, nil)
	if err != nil {
		return err
	}
	for _, name := range names {
		_ = ref.client.Run(name)
	}
	if err := compareTables(&out.log, rig.db, ref.db); err != nil {
		return err
	}
	end, err := readTPCCState(rig.db)
	if err != nil {
		return err
	}
	checkConsistency(&out.log, seeded, end)
	return nil
}

// tpccTables are the tables of tpcc.Schema.
var tpccTables = []string{"warehouse", "district", "customer", "history", "orders", "new_orders", "order_line", "item", "stock"}

func scan(db *engine.DB, table string) (*sqldb.ResultSet, error) {
	rs, err := db.NewSession().Exec("SELECT * FROM " + table)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", table, err)
	}
	return rs, nil
}

// compareTables checks that every table holds the same multiset of rows
// in both databases.
func compareTables(log *opLog, got, want *engine.DB) error {
	for _, t := range tpccTables {
		g, err := scan(got, t)
		if err != nil {
			return err
		}
		w, err := scan(want, t)
		if err != nil {
			return err
		}
		gb, wb := rowBag(g), rowBag(w)
		if len(gb) != len(wb) {
			log.problem("table %s holds %d rows, the eager replay %d", t, len(gb), len(wb))
			continue
		}
		for i := range gb {
			if gb[i] != wb[i] {
				log.problem("table %s differs from the eager replay: row %q where the replay has %q", t, gb[i], wb[i])
				break
			}
		}
	}
	return nil
}

// rowBag renders each row canonically and sorts them: a multiset, so
// duplicate rows count and row order does not.
func rowBag(rs *sqldb.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = sqldb.Format(v)
		}
		out[i] = strings.Join(parts, "\x1f")
	}
	sort.Strings(out)
	return out
}

// tpccState holds, per key, how far each TPC-C consistency condition the
// trimmed schema supports is from holding. The checks compare the end
// state with the seeded one, so a condition the seed data already breaks
// is checked on the change alone.
type tpccState struct {
	ytdGap    map[int64]float64 // per warehouse: w_ytd - sum(d_ytd)
	ordersGap map[int64]int64   // per district: count(orders) - (d_next_o_id - 1)
	linesGap  map[int64]int64   // per district: sum(o_ol_cnt) - count(order_line)
	badStock  map[int64]bool    // s_id with s_quantity outside [10, 100]
}

func readTPCCState(db *engine.DB) (*tpccState, error) {
	st := &tpccState{
		ytdGap:    make(map[int64]float64),
		ordersGap: make(map[int64]int64),
		linesGap:  make(map[int64]int64),
		badStock:  make(map[int64]bool),
	}
	each := func(table string, fn func(row func(col string) sqldb.Value)) error {
		rs, err := scan(db, table)
		if err != nil {
			return err
		}
		idx := make(map[string]int, len(rs.Cols))
		for i, c := range rs.Cols {
			idx[c] = i
		}
		for _, r := range rs.Rows {
			fn(func(col string) sqldb.Value { return r[idx[col]] })
		}
		return nil
	}
	num := func(v sqldb.Value) float64 {
		switch x := v.(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		}
		return math.NaN()
	}
	i64 := func(v sqldb.Value) int64 { x, _ := v.(int64); return x }
	steps := []struct {
		table string
		fn    func(row func(string) sqldb.Value)
	}{
		{"warehouse", func(r func(string) sqldb.Value) { st.ytdGap[i64(r("w_id"))] += num(r("w_ytd")) }},
		{"district", func(r func(string) sqldb.Value) {
			st.ytdGap[i64(r("d_w_id"))] -= num(r("d_ytd"))
			st.ordersGap[i64(r("d_id"))] -= i64(r("d_next_o_id")) - 1
		}},
		{"orders", func(r func(string) sqldb.Value) {
			st.ordersGap[i64(r("o_d_id"))]++
			st.linesGap[i64(r("o_d_id"))] += i64(r("o_ol_cnt"))
		}},
		{"order_line", func(r func(string) sqldb.Value) { st.linesGap[i64(r("ol_d_id"))]-- }},
		{"stock", func(r func(string) sqldb.Value) {
			if q := i64(r("s_quantity")); q < 10 || q > 100 {
				st.badStock[i64(r("s_id"))] = true
			}
		}},
	}
	for _, s := range steps {
		if err := each(s.table, s.fn); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// checkConsistency reports every condition the run broke.
func checkConsistency(log *opLog, seeded, end *tpccState) {
	for _, w := range sortedKeys(end.ytdGap) {
		if d := end.ytdGap[w] - seeded.ytdGap[w]; math.Abs(d) > 1e-6*(1+math.Abs(end.ytdGap[w])) {
			log.problem("warehouse %d: w_ytd - sum(d_ytd) moved by %g", w, d)
		}
	}
	for _, d := range sortedKeys(end.ordersGap) {
		if end.ordersGap[d] != seeded.ordersGap[d] {
			log.problem("district %d: count(orders) - (d_next_o_id - 1) moved from %d to %d", d, seeded.ordersGap[d], end.ordersGap[d])
		}
	}
	for _, d := range sortedKeys(end.linesGap) {
		if end.linesGap[d] != seeded.linesGap[d] {
			log.problem("district %d: sum(o_ol_cnt) - count(order_line) moved from %d to %d", d, seeded.linesGap[d], end.linesGap[d])
		}
	}
	for _, s := range sortedKeys(end.badStock) {
		if !seeded.badStock[s] {
			log.problem("stock %d: s_quantity left [10, 100]", s)
		}
	}
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
