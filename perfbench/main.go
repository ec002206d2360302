// Command perfbench is the repository benchmark: three workloads that
// together exercise every layer of rnknn, from the kNN methods and their
// distance oracles up through the public facade, the batch and monitor
// paths and the HTTP serving stack.
//
//	bash perfbench/run.sh --workload knn-grid --seed 1 --seconds 15 --trace 0
//
// Each run builds its inputs from --seed, checks every answer it times
// against a reference (a wrong answer makes the run exit non-zero), and
// prints a report followed by one JSON line: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer metrics plus a span file and the
// per-layer self times. See README.md for the workloads and metric
// definitions.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// all of them; README.md maps each to its per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MB"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"qps", "1/s"},
	{"aux_p50_us", "us"},
}

// Method, index and oracle names as the library reports them.
var (
	methodNames = []string{"INE", "IER-Dijk", "IER-CH", "IER-TNR", "IER-PHL", "IER-Gt", "Gtree", "ROAD", "DisBrw", "DisBrw-OH"}
	ierNames    = []string{"IER-Dijk", "IER-CH", "IER-TNR", "IER-PHL", "IER-Gt"}
	indexNames  = []string{"CH", "PHL", "TNR", "Gtree", "ROAD", "SILC"}
	oracleNames = []string{"Dijk", "CH", "TNR", "PHL", "Gt"}
)

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0 on that workload.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	add("setup.graph_s", "s")
	add("setup.open_s", "s")
	add("setup.register_s", "s")
	for _, idx := range indexNames {
		add("build."+idx+".s", "s")
	}
	for _, idx := range indexNames {
		add("index."+idx+".mb", "MB")
	}
	for _, m := range methodNames {
		add("method."+m+".p50_us_gm", "us")
	}
	for _, m := range methodNames {
		add("method."+m+".time_frac", "ratio")
	}
	add("work.INE.settled", "count")
	for _, m := range ierNames {
		add("work."+m+".oracle_calls", "count")
		add("work."+m+".evictions", "count")
	}
	for _, o := range oracleNames {
		add("oracle."+o+".ns_per_call", "ns")
	}
	add("facade.overhead_ns", "ns")
	add("planner.explain_ns", "ns")
	add("planner.auto_regret", "ratio")
	for _, m := range methodNames {
		add("planner.share."+m, "ratio")
	}
	add("planner.batch_regret", "ratio")
	add("serve.cache_hit_frac", "ratio")
	add("serve.cache_evictions", "count")
	add("serve.coalesced", "count")
	add("serve.shed", "count")
	add("serve.handler_p50_us", "us")
	add("serve.http_self_p50_us", "us")
	add("client.rtt_self_p50_us", "us")
	add("serve.search_mean_us", "us")
	add("serve.batch_cache_hit_frac", "ratio")
	add("serve.batch_shared_frac", "ratio")
	add("db.epoch_advances", "count")
	add("gen.late_p99_us", "us")
	add("batch.explain_us", "us")
	add("batch.shared_frac", "ratio")
	add("batch.mean_group_size", "count")
	add("batch.share_speedup.INE", "ratio")
	add("batch.share_speedup.Gtree", "ratio")
	add("monitor.avoided_frac", "ratio")
	add("monitor.check_p50_ns", "ns")
	add("monitor.refresh_p50_us", "us")
	for _, r := range []string{"initial", "drift", "epoch", "jump"} {
		add("monitor.refresh."+r, "count")
	}
	add("churn.write_p50_us", "us")
	add("trace.overhead_frac", "ratio")
	return out
}

// run is one workload execution: its settings, its outcome counters and the
// metrics it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string

	attempted int64
	failed    int64
	// wrong counts answers that disagreed with their reference; any makes
	// the run fail. Wrong answers also count in failed.
	wrong int64

	m map[string]float64
}

func (r *run) logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// mismatch records one wrong answer.
func (r *run) mismatch(format string, args ...any) {
	r.wrong++
	r.failed++
	if r.wrong <= 10 {
		r.logf("WRONG: "+format, args...)
	}
}

var workloads = map[string]func(*run) error{
	"knn-grid":   runKNNGrid,
	"serve-zipf": runServeZipf,
	"hotspot":    runHotspot,
}

var workloadOrder = []string{"knn-grid", "serve-zipf", "hotspot"}

// objectSeed draws the object sets (and hotspot's hot cells). They are part
// of each workload's definition and do not change with --seed, which draws
// what is sampled over them: query vertices, batch members, routes and
// request streams. Redrawing a few dozen sparse objects per seed moved the
// knn-grid and hotspot figures by 10-25% between seeds, more than the
// changes the benchmark exists to detect.
const objectSeed = 1

func main() {
	workload := flag.String("workload", "", "workload to run: knn-grid, serve-zipf, hotspot, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok && *workload != "all" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want knn-grid, serve-zipf, hotspot or all)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *outDir))
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, outDir: *outDir, m: map[string]float64{},
	}
	r.logf("perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s",
		r.workload, r.seed, *seconds, *trace, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
	if err := workloads[*workload](r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := resultLine(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if r.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong answers\n", *workload, r.wrong)
		os.Exit(1)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// resultLine renders the final JSON line: every end-to-end metric untraced,
// every per-layer metric traced.
func resultLine(r *run) (string, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer()
	}
	out := resultJSON{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	if out.Attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok && !r.traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not a number: %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runAll runs every workload in its own child process, one after another,
// and ends with one JSON line whose metrics are prefixed by workload.
func runAll(seed int64, seconds, trace int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	code := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", outDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w+"."+name] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return code
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one (a checkout without version control cannot).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
