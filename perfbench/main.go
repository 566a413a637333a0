// Command perfbench is the repository's benchmark: it runs one workload
// against the Sloth reproduction, checks every output against an oracle,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how to read them.
//
//	perfbench --workload suite-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/sqldb/engine"
)

// workload is one closed-loop traffic mix. A run's length is a whole
// number of rounds, fixed by --seconds and roundsPerSecond, never by a
// clock: host cost per op on a long-lived server grows with the ops
// before it, so both sides of a comparison must run the same ops.
type workload struct {
	run func(config) (*outcome, error)
	// roundsPerSecond is how many rounds one second of --seconds buys,
	// sized on a 2-CPU host so that a run ends within about --seconds.
	roundsPerSecond float64
	// procs, when not 0, is the run's GOMAXPROCS.
	procs int
}

var workloads = map[string]workload{
	// A round is one pass over the 150 golden pages.
	"suite-paper": {run: suitePaper, roundsPerSecond: 15},
	// A round is 150 lockstep steps, 300 page loads. The two sessions
	// hand off to each other at every hub window; on one P a hand-off
	// stays on its thread, while on two it waits for the other vCPU to
	// wake, a wait that varied from run to run on a shared 2-vCPU
	// virtual machine and moved host_op_p90_ms with it.
	"soak-shared": {run: soakShared, roundsPerSecond: 1.6, procs: 1},
	// A round is one database serving tpccDecks 100-transaction decks.
	"tpcc-mix": {run: tpccMix, roundsPerSecond: 2},
}

// config is one run's inputs.
type config struct {
	seed   int64
	rounds int
	traced bool
	hooks  hooks
}

// hooks let the benchmark's tests corrupt a run to show that the checks
// catch it. Real runs leave them zero.
type hooks struct {
	badOp   int                           // 1-based op swapped for a request the program rejects
	html    func(op int, h string) string // rewrites a page load's output before it is checked
	alterDB func(db *engine.DB) error     // alters the TPC-C database before it is checked
}

// output applies the html hook.
func (h hooks) output(op int, html string) string {
	if h.html == nil {
		return html
	}
	return h.html(op, html)
}

// opLog records every op of the timed region and what the oracles found.
type opLog struct {
	attempted, failed int
	virt              []time.Duration // simulated latency per successful op
	problems          []string
}

func (l *opLog) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	log      opLog
	m        meter
	setup    []time.Duration
	makespan time.Duration // simulated time the timed ops took
	maxBatch int
	tr       *tracer
}

// add records one op of the open interval and reports whether it
// succeeded.
func (o *outcome) add(host, virt time.Duration, err error) bool {
	o.log.attempted++
	o.m.op(host, err == nil)
	if err != nil {
		o.log.failed++
		if o.log.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", o.log.attempted, err)
		}
		return false
	}
	o.log.virt = append(o.log.virt, virt)
	return true
}

func newOutcome(cfg config) *outcome {
	out := &outcome{}
	if cfg.traced {
		out.tr = newTracer()
		out.m.prof = newProfiler()
		out.m.profEvery = max(1, cfg.rounds/50)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(out *outcome) *result {
	return &result{
		Correct:   len(out.log.problems) == 0,
		Attempted: out.log.attempted,
		Failed:    out.log.failed,
		Metrics:   make(map[string]metric),
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd is what a user of the system sees: host cost, simulated
// latency and the traffic behind it.
func endToEnd(out *outcome) *result {
	r := newResult(out)
	m, t := &out.m, out.m.total()
	ops := float64(t.ops)
	r.set("host_ops_per_s", ratio(float64(t.done), t.wall.Seconds()), "1/s")
	r.set("host_op_p50_ms", m.mean(func(iv *interval) float64 { return ms(quantile(iv.host, 0.50)) }), "ms")
	r.set("host_op_p90_ms", m.mean(func(iv *interval) float64 { return ms(quantile(iv.host, 0.90)) }), "ms")
	r.set("host_cpu_ms_per_op", ratio(ms(t.cpu), ops), "ms")
	r.set("alloc_kb_per_op", ratio(float64(t.alloc)/1024, ops), "KiB")
	r.set("max_rss_mb", maxRSSMiB(), "MiB")
	r.set("setup_s", quantile(out.setup, 0.50).Seconds(), "s")
	r.set("virt_op_p50_ms", ms(quantile(out.log.virt, 0.50)), "virtual-ms")
	r.set("virt_op_p99_ms", ms(quantile(out.log.virt, 0.99)), "virtual-ms")
	r.set("virt_ops_per_s", ratio(float64(t.done), out.makespan.Seconds()), "1/virtual-s")
	r.set("round_trips_per_op", ratio(float64(t.delta[cRoundTrips]), ops), "count")
	r.set("db_stmts_per_op", ratio(float64(t.delta[cSrvQueries]), ops), "count")
	return r
}

// perLayer splits the same run by module, from the traced run's totals.
// untracedRate is host_ops_per_s of the untraced run of the same ops.
func perLayer(out *outcome, untracedRate float64) *result {
	r := newResult(out)
	t := out.m.total()
	ops := float64(t.ops)
	d := func(i int) float64 { return float64(t.delta[i]) }
	per := func(i int) float64 { return ratio(d(i), ops) }
	p := out.m.prof
	for _, l := range []string{"webapp", "orm", "querystore", "merge", "dispatch", "driver", "netsim", "plan", "engine", "storage", "gc"} {
		r.set(l+".cpu_share", p.share(l), "fraction")
	}
	r.set("thunk.allocs_per_op", per(cThunks), "count")
	r.set("querystore.batches_per_op", per(cQSBatches), "count")
	r.set("querystore.dedup_hits_per_op", per(cQSDedup), "count")
	r.set("querystore.max_batch", float64(out.maxBatch), "count")
	r.set("merge.rewrite_us_per_batch", out.tr.meanUs("merge.rewrite"), "us")
	r.set("merge.demux_us_per_batch", out.tr.meanUs("merge.demux"), "us")
	r.set("merge.saved_per_op", per(cMergeSaved), "count")
	r.set("merge.out_per_in", ratio(float64(out.tr.mergeOut), float64(out.tr.mergeIn)), "fraction")
	r.set("dispatch.host_us_per_batch", out.tr.meanUs("dispatch"), "us")
	r.set("dispatch.coalesced_per_op", per(cCoalesced), "count")
	r.set("dispatch.overlap_ms_per_op", ratio(d(cOverlapNs)/1e6, ops), "virtual-ms")
	r.set("driver.batches_per_op", per(cSrvBatches), "count")
	r.set("driver.db_ms_per_op", ratio(d(cDBTimeNs)/1e6, ops), "virtual-ms")
	r.set("driver.queue_wait_ms_per_op", ratio(d(cQueueWaitNs)/1e6, ops), "virtual-ms")
	r.set("driver.snap_batch_share", ratio(d(cSnapBatches), d(cSrvBatches)), "fraction")
	r.set("netsim.bytes_per_op", per(cBytes), "B")
	r.set("plan.hit_rate", ratio(d(cPlanHits), d(cPlanHits)+d(cPlanMisses)), "fraction")
	r.set("plan.compiles_per_op", per(cPlanMisses), "count")
	r.set("storage.rows_per_stmt", ratio(d(cSrvRows), d(cSrvQueries)), "count")
	r.set("gc.cycles_per_kop", ratio(float64(t.gcCycles)*1000, ops), "count")
	r.set("gc.pause_ms_per_kop", ratio(float64(t.gcPause)/1e6*1000, ops), "ms")
	traced := endToEnd(out).Metrics["host_ops_per_s"].Value
	r.set("trace.overhead", ratio(untracedRate, traced), "ratio")
	return r
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: suite-paper, soak-shared or tpcc-mix")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 20, "run length, converted to a fixed number of rounds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, GOMAXPROCS %d, NumCPU %d\n", *name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	cfg := config{seed: *seed, rounds: max(1, int(math.Round(w.roundsPerSecond*float64(*seconds)))), traced: *trace == 1}

	var untracedRate float64
	if cfg.traced {
		// The untraced run of the same ops, in a process of its own, is
		// the base of trace.overhead. It exits non-zero if a check fails.
		base, err := runChild(*name, *seed, *seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		untracedRate = base.Metrics["host_ops_per_s"].Value
	}

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for i, p := range out.log.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d problems in all\n", len(out.log.problems))
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	var res *result
	if cfg.traced {
		res = perLayer(out, untracedRate)
		if *spans != "" {
			if err := os.MkdirAll(*spans, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			if err := out.tr.write(filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
		}
	} else {
		res = endToEnd(out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs the untraced form of a workload in a new process and
// returns its result line.
func runChild(name string, seed int64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	if res.Attempted == 0 {
		return nil, errors.New("untraced run attempted no ops")
	}
	return &res, nil
}
