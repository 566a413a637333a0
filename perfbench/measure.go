package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// hostNow is the benchmark's only read of the host clock.
func hostNow() time.Time {
	//slothvet:allow wallclock(benchmark harness: host time is what it measures)
	return time.Now()
}

// cpuTime is the process's user+sys CPU so far, so work moved to other
// goroutines or to the garbage collector still counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set. It is a per-process
// figure, which is why every workload runs in a process of its own.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Counter indices: each is read from a public Stats() snapshot, and only
// deltas across timed intervals are reported.
const (
	cQSBatches   = iota // query-store batches flushed
	cQSDedup            // registrations answered by an existing id
	cThunks             // thunks allocated (session and store)
	cMergeSaved         // statements the merge stage eliminated
	cCoalesced          // statements answered by another session's window entry
	cOverlapNs          // virtual execution time hidden behind app compute
	cSrvBatches         // batches the server executed
	cSrvQueries         // statements the server executed
	cSrvRows            // rows the executor visited
	cSnapBatches        // batches on the snapshot-read path
	cDBTimeNs           // virtual time charged for execution
	cQueueWaitNs        // virtual time batches queued for a worker
	cRoundTrips         // link round trips, the hub's link included
	cBytes              // link payload bytes, both directions
	cPlanHits           // compiled-plan cache hits
	cPlanMisses         // compiled-plan cache compiles
	nCounters
)

type counters [nCounters]int64

func (c *counters) server(s *driver.Server) {
	st := s.Stats()
	c[cSrvBatches] += st.Batches
	c[cSrvQueries] += st.Queries
	c[cSrvRows] += st.Rows
	c[cSnapBatches] += st.SnapBatches
	c[cDBTimeNs] += int64(st.DBTime)
	c[cQueueWaitNs] += int64(st.QueueWait)
}

func (c *counters) plans(db *engine.DB) {
	st := db.PlanCache().Stats()
	c[cPlanHits] += st.Hits
	c[cPlanMisses] += st.Misses
}

func (c *counters) link(l *netsim.Link) {
	st := l.Stats()
	c[cRoundTrips] += st.RoundTrips
	c[cBytes] += st.BytesSent + st.BytesRecv
}

// store adds one query store, its session (nil for TPC-C, which has
// none) and the dispatcher the store submits to.
func (c *counters) store(s *querystore.Store, sess *orm.Session) {
	st := s.Stats()
	c[cQSBatches] += st.Batches
	c[cQSDedup] += st.DedupHits
	c[cThunks] += st.ThunkAllocs
	c[cMergeSaved] += st.MergeSaved
	c[cOverlapNs] += int64(s.Dispatcher().Stats().OverlapSaved)
	c.link(s.Conn().Link())
	if sess != nil {
		c[cThunks] += sess.Stats().ThunkAllocs
	}
}

func (c *counters) hub(h *dispatch.Hub) {
	c[cCoalesced] += h.Stats().Coalesced
}

// interval is one timed stretch of a run: one pass of suite-paper, or
// the life of one long-lived server.
type interval struct {
	ops, done                int
	wall, cpu                time.Duration
	alloc, gcCycles, gcPause uint64
	delta                    counters
	host                     []time.Duration // per successful op
}

// meter times a workload's intervals. Rates and per-op costs are totals
// over every interval, and host quantiles are taken per interval and
// averaged, so every part of a run counts alike. A median over intervals
// would not: where the intervals grow costlier with a server's age, as
// soak-shared's rounds do, it is the middle-aged interval alone, a second
// of the run, and it moved with the host's speed in that second.
type meter struct {
	intervals               []interval
	cur                     interval
	t0                      time.Time
	cpu0                    time.Duration
	alloc0, cycles0, pause0 uint64
	c0                      counters
	// prof, when set, profiles every profEvery-th interval: a profile
	// costs about 0.15 s to stop, too much for hundreds of passes, and
	// every pass of a workload runs the same ops.
	prof      *profiler
	profEvery int
	profiling bool
}

// begin opens a timed interval. It collects garbage first, so the
// interval pays only for the garbage it makes itself.
func (m *meter) begin(c counters) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cur = interval{}
	m.alloc0, m.cycles0, m.pause0 = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	m.c0 = c
	m.profiling = m.prof != nil && len(m.intervals)%m.profEvery == 0
	if m.profiling {
		m.prof.start()
	}
	m.cpu0 = cpuTime()
	m.t0 = hostNow()
}

// op records one op of the open interval.
func (m *meter) op(host time.Duration, ok bool) {
	m.cur.ops++
	if ok {
		m.cur.done++
		m.cur.host = append(m.cur.host, host)
	}
}

// end closes the interval.
func (m *meter) end(c counters) error {
	m.cur.wall = hostNow().Sub(m.t0)
	m.cur.cpu = cpuTime() - m.cpu0
	if m.profiling {
		if err := m.prof.stop(); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cur.alloc = ms.TotalAlloc - m.alloc0
	m.cur.gcCycles = uint64(ms.NumGC) - m.cycles0
	m.cur.gcPause = ms.PauseTotalNs - m.pause0
	for i := range c {
		m.cur.delta[i] = c[i] - m.c0[i]
	}
	m.intervals = append(m.intervals, m.cur)
	m.cur = interval{}
	return nil
}

// mean is the mean over intervals of f.
func (m *meter) mean(f func(iv *interval) float64) float64 {
	var sum float64
	for i := range m.intervals {
		sum += f(&m.intervals[i])
	}
	return ratio(sum, float64(len(m.intervals)))
}

// total sums every interval.
func (m *meter) total() interval {
	var t interval
	for _, iv := range m.intervals {
		t.ops += iv.ops
		t.done += iv.done
		t.wall += iv.wall
		t.cpu += iv.cpu
		t.alloc += iv.alloc
		t.gcCycles += iv.gcCycles
		t.gcPause += iv.gcPause
		for i := range iv.delta {
			t.delta[i] += iv.delta[i]
		}
	}
	return t
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + time.Duration(frac*float64(xs[lo+1]-xs[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
