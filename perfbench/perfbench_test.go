package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sqldb/engine"
)

// short runs one round of a workload: one pass, 300 lockstep loads, or
// one database's 400 transactions.
func short(t *testing.T, name string, traced bool, h hooks) *outcome {
	t.Helper()
	out, err := workloads[name].run(config{seed: 7, rounds: 1, traced: traced, hooks: h})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

var names = []string{"suite-paper", "soak-shared", "tpcc-mix"}

func TestWorkloadsPassTheirOracles(t *testing.T) {
	for _, name := range names {
		out := short(t, name, false, hooks{})
		if len(out.log.problems) > 0 || out.log.failed > 0 || out.log.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %q", name, out.log.attempted, out.log.failed, out.log.problems)
		}
	}
}

func TestAlteredPageByteFailsTheCheck(t *testing.T) {
	flip := func(op int, h string) string {
		if op != 5 || h == "" {
			return h
		}
		b := []byte(h)
		b[len(b)/2] ^= 1
		return string(b)
	}
	for _, name := range []string{"suite-paper", "soak-shared"} {
		out := short(t, name, false, hooks{html: flip})
		if len(out.log.problems) != 1 || !strings.Contains(out.log.problems[0], "op 5:") {
			t.Errorf("%s: problems %q, want one for op 5", name, out.log.problems)
		}
		if res := endToEnd(out); res.Correct {
			t.Errorf("%s: result reads correct", name)
		}
	}
}

func TestAlteredTPCCRowFailsTheCheck(t *testing.T) {
	exec := func(sql string) func(*engine.Session) error {
		return func(s *engine.Session) error { _, err := s.Exec(sql); return err }
	}
	for _, tc := range []struct {
		name  string
		alter func(*engine.Session) error
		want  []string
	}{
		{"stock out of range", exec("UPDATE stock SET s_quantity = 5 WHERE s_id = 1000007"),
			[]string{"table stock differs", "s_quantity left"}},
		{"order id skipped", exec("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = 102"),
			[]string{"table district differs", "district 102: count(orders)"}},
		{"payment lost", exec("UPDATE warehouse SET w_ytd = w_ytd + 1.5 WHERE w_id = 2"),
			[]string{"table warehouse differs", "warehouse 2: w_ytd"}},
		// No consistency condition covers history; only the eager replay
		// can see a lost row there.
		{"history row lost", func(s *engine.Session) error {
			rs, err := s.Exec("SELECT h_id FROM history ORDER BY h_id LIMIT 1")
			if err != nil {
				return err
			}
			id, _ := rs.Int(0, "h_id")
			_, err = s.Exec("DELETE FROM history WHERE h_id = ?", id)
			return err
		}, []string{"table history holds"}},
	} {
		alter := tc.alter
		out := short(t, "tpcc-mix", false, hooks{alterDB: func(db *engine.DB) error { return alter(db.NewSession()) }})
		got := strings.Join(out.log.problems, "\n")
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: problems %q lack %q", tc.name, out.log.problems, w)
			}
		}
	}
}

func TestFailingOpIsCountedAsFailed(t *testing.T) {
	for _, name := range names {
		out := short(t, name, false, hooks{badOp: 3})
		// In soak-shared both lockstep sessions ask for the bad page.
		want := 1
		if name == "soak-shared" {
			want = soakSessions
		}
		if out.log.failed != want || len(out.log.problems) > 0 {
			t.Errorf("%s: failed %d (want %d), problems %q", name, out.log.failed, want, out.log.problems)
		}
		if res := endToEnd(out); !res.Correct || res.Failed != want {
			t.Errorf("%s: result correct %v failed %d", name, res.Correct, res.Failed)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that untraced runs print exactly
// the end-to-end metrics and traced runs exactly the per-layer metrics
// BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	got := func(r *result) []string {
		var out []string
		for n, m := range r.Metrics {
			out = append(out, n+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	out := short(t, "suite-paper", true, hooks{})
	if g, w := strings.Join(got(endToEnd(out)), ", "), strings.Join(want(spec.EndToEnd), ", "); g != w {
		t.Errorf("end-to-end metrics\n got %s\nwant %s", g, w)
	}
	layered := perLayer(out, 1)
	if g, w := strings.Join(got(layered), ", "), strings.Join(want(spec.PerLayer), ", "); g != w {
		t.Errorf("per-layer metrics\n got %s\nwant %s", g, w)
	}
	var share float64
	for n, m := range layered.Metrics {
		if strings.HasSuffix(n, ".cpu_share") {
			share += m.Value
		}
	}
	if share > 1+1e-9 {
		t.Errorf("layer CPU shares sum to %g", share)
	}
	if layered.Metrics["dispatch.host_us_per_batch"].Value <= 0 {
		t.Errorf("no dispatch spans recorded")
	}
}

// TestTracedSoakSeesMerge checks that the merge decorators record on the
// one workload that merges.
func TestTracedSoakSeesMerge(t *testing.T) {
	r := perLayer(short(t, "soak-shared", true, hooks{}), 1)
	for _, n := range []string{"merge.rewrite_us_per_batch", "merge.demux_us_per_batch", "merge.saved_per_op", "dispatch.coalesced_per_op"} {
		if r.Metrics[n].Value <= 0 {
			t.Errorf("%s = %g", n, r.Metrics[n].Value)
		}
	}
	if v := r.Metrics["merge.out_per_in"].Value; v <= 0 || v >= 1 {
		t.Errorf("merge.out_per_in = %g", v)
	}
}

func TestPkgOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/driver.(*laneBusy).free":                                      "repro/internal/driver",
		"repro/internal/sqldb/plan.compile.func3":                                     "repro/internal/sqldb/plan",
		"repro/internal/orm.(*Meta[go.shape.struct { ID int64 }]).Find":               "repro/internal/orm",
		"repro/internal/thunk.(*Thunk[go.shape.*repro/internal/x.T]).Force":           "repro/internal/thunk",
		"repro/internal/orm.Lazy[go.shape.*repro/internal/apps/itracker.Issue].Force": "repro/internal/orm",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var sink uint64

// spin burns CPU in this package, which the profiler charges to bench.
// The loop keeps to a local, so the race detector adds no calls to it.
func spin(d time.Duration) {
	var x uint64
	for start := hostNow(); hostNow().Sub(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*31 + uint64(i)
		}
	}
	sink = x
}

func TestProfilerChargesInnermostReproFrame(t *testing.T) {
	p := newProfiler()
	p.start()
	spin(300 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples decoded")
	}
	if got := p.share("bench"); got < 0.5 {
		t.Errorf("bench share %g of %d ns, want most of it (%v)", got, p.total, p.ns)
	}
}
