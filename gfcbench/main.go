// Command gfcbench is the repository benchmark: four workloads that run
// the library's real entry points end to end, check every answer, and
// print one JSON result line. See README.md for the workloads, the
// metrics and how to read a traced run.
//
// Usage (from the repository root, after building with run.py):
//
//	gfcbench --workload census|durable_census|addressing|warm_restart
//	         --seed N --seconds S --trace 0|1
//
// Every repetition runs in a fresh child process of this binary, so
// process-wide memoization (iso partitions, mapped artifacts) and the
// resident-set high-water mark start clean each time.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workDir holds per-run scratch files (ledgers, the warm pack, reference
// answers) and traced-run span files, relative to the checkout root.
const workDir = ".bench_build"

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// every run reports all of one list.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"rps", "1/s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []struct{ Name, Unit string }{
	{"automaton.rank_ns", "ns"},
	{"automaton.unrank_ns", "ns"},
	{"automaton.count_us", "us"},
	{"automaton.ranker_build_us", "us"},
	{"core.build_s", "s"},
	{"core.builds", "count"},
	{"core.column_reuse_frac", "frac"},
	{"core.isometric_s", "s"},
	{"core.load_verify_us", "us"},
	{"graph.msbfs_sources_per_s", "1/s"},
	{"network.route_us", "us"},
	{"store.decode_us", "us"},
	{"store.hit_frac", "frac"},
	{"store.pack_build_s", "s"},
	{"service.handler_us.count", "us"},
	{"service.handler_us.rank", "us"},
	{"service.handler_us.unrank", "us"},
	{"service.handler_us.neighbors", "us"},
	{"service.handler_us.route", "us"},
	{"service.handler_us.broadcast", "us"},
	{"service.batch_wait_us", "us"},
	{"service.batch_occupancy", "count"},
	{"service.cache_hit_frac", "frac"},
	{"service.p99_ms", "ms"},
	{"service.p999_ms", "ms"},
	{"sweep.cells", "count"},
	{"sweep.busy_s", "s"},
	{"sweep.self_s", "s"},
	{"sweep.worker_util", "frac"},
	{"fabric.coordinator_init_s", "s"},
	{"iso.band_s", "s"},
	{"fabric.run_s", "s"},
	{"fabric.idle_frac", "frac"},
	{"fabric.leases", "count"},
	{"fabric.steals", "count"},
	{"fabric.requeues", "count"},
	{"fabric.dup_frac", "frac"},
	{"fabric.ledger_append_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// repResult is what one child process reports: its end-to-end figures,
// its operation counts, and, for a traced child, per-layer metrics.
type repResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	P50Ms     float64            `json:"p50_ms"`
	P90Ms     float64            `json:"p90_ms"`
	RPS       float64            `json:"rps"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// fail counts one failed operation and keeps the first few reasons.
func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// childArgs are the parameters a child process runs with.
type childArgs struct {
	Mode     string // rep, setup (serving set-up probe) or band (iso.Band timing)
	Workload string
	Seed     int64
	Seconds  float64
	Dir      string
	Traced   bool
	Spawned  int64 // parent's clock just before exec, unix ns
}

// sinceSpawn is the set-up time: from the parent's exec of this process
// to now, the moment the program can take its first unit of work.
func (a childArgs) sinceSpawn() float64 {
	return float64(time.Now().UnixNano()-a.Spawned) / 1e9
}

// nproc bounds callers and sweep workers.
func nproc() int { return runtime.NumCPU() }

func main() {
	workload := flag.String("workload", "", "census | durable_census | addressing | warm_restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	var ca childArgs
	flag.StringVar(&ca.Mode, "child", "", "internal: run one repetition in this process")
	flag.StringVar(&ca.Dir, "dir", "", "internal: run directory")
	flag.Int64Var(&ca.Spawned, "spawned", 0, "internal: parent's exec timestamp (unix ns)")
	flag.BoolVar(&ca.Traced, "traced", false, "internal: record spans")
	flag.Parse()

	if ca.Mode != "" {
		ca.Workload, ca.Seed, ca.Seconds = *workload, *seed, *seconds
		res, err := runChild(ca)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfcbench child %s/%s: %v\n", ca.Workload, ca.Mode, err)
			os.Exit(1)
		}
		res.PeakRSSMB = peakRSSMB()
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
		return
	}

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "gfcbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	line, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func runChild(a childArgs) (repResult, error) {
	switch a.Workload + "/" + a.Mode {
	case "census/rep", "census/setup":
		return censusRep(a)
	case "durable_census/rep":
		return durableRep(a)
	case "durable_census/band":
		return bandProbe()
	case "addressing/rep", "addressing/setup":
		return addressingRep(a)
	case "warm_restart/rep", "warm_restart/setup":
		return warmRep(a)
	}
	return repResult{}, fmt.Errorf("unknown child %s/%s", a.Workload, a.Mode)
}

// runner spawns the child processes of one benchmark run.
type runner struct {
	workload string
	seed     int64
	seconds  float64
	dir      string
}

// spawn runs one child to completion and decodes its result line.
func (rn *runner) spawn(mode string, traced bool) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	args := []string{
		"-child", mode, "-workload", rn.workload, "-seed", strconv.FormatInt(rn.seed, 10),
		"-seconds", strconv.FormatFloat(rn.seconds, 'g', -1, 64), "-dir", rn.dir,
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("child %s: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return repResult{}, fmt.Errorf("child %s: decoding result: %w", mode, err)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "gfcbench: %s: %s\n", rn.workload, e)
	}
	if mode == "setup" {
		return res, nil
	}
	fmt.Fprintf(os.Stderr, "gfcbench: %s %s: setup %.4gs wall %.4gs p50 %.4gms p90 %.4gms rps %.4g rss %.4gMB failed %d/%d\n",
		rn.workload, mode, res.SetupS, res.WallS, res.P50Ms, res.P90Ms, res.RPS, res.PeakRSSMB, res.Failed, res.Attempted)
	return res, nil
}

// repeat spawns full repetitions until budget seconds have passed and at
// least minReps have run.
func (rn *runner) repeat(budget float64, minReps int, traced bool) ([]repResult, error) {
	const maxReps = 60
	var reps []repResult
	start := time.Now()
	for len(reps) < maxReps && (len(reps) < minReps || time.Since(start).Seconds() < budget) {
		r, err := rn.spawn("rep", traced)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// summary is the aggregate of a run's repetitions: medians of each
// end-to-end figure, summed operation counts.
type summary struct {
	metrics           map[string]float64
	attempted, failed int
}

func summarize(reps []repResult) summary {
	pick := map[string]func(repResult) float64{
		"setup_s":     func(r repResult) float64 { return r.SetupS },
		"wall_s":      func(r repResult) float64 { return r.WallS },
		"p50_ms":      func(r repResult) float64 { return r.P50Ms },
		"p90_ms":      func(r repResult) float64 { return r.P90Ms },
		"rps":         func(r repResult) float64 { return r.RPS },
		"peak_rss_mb": func(r repResult) float64 { return r.PeakRSSMB },
	}
	s := summary{metrics: map[string]float64{}}
	for name, f := range pick {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		s.metrics[name] = median(xs)
	}
	for _, r := range reps {
		s.attempted += r.Attempted
		s.failed += r.Failed
	}
	return s
}

// run executes one benchmark run and renders the result line.
func run(workload string, seed int64, seconds float64, traced bool) (string, error) {
	switch workload {
	case "census", "durable_census", "addressing", "warm_restart":
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	dir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	rn := &runner{workload: workload, seed: seed, seconds: seconds, dir: dir}

	var (
		s      summary
		layers map[string]float64
		err    error
	)
	if traced {
		s, layers, err = rn.traced()
	} else {
		s, err = rn.untraced()
	}
	if err != nil {
		return "", err
	}
	metrics := map[string]any{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = map[string]any{"value": layers[m.Name], "unit": m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v := s.metrics[m.Name]
			if v <= 0 {
				return "", fmt.Errorf("metric %s measured %g", m.Name, v)
			}
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{
		"correct":   s.failed == 0 && s.attempted > 0,
		"attempted": max(s.attempted, 1),
		"failed":    s.failed,
		"metrics":   metrics,
	}); err != nil {
		return "", err
	}
	return strings.TrimSpace(buf.String()), nil
}

// setupProbes is how many set-up-only children a census, addressing or
// warm_restart run adds to its full repetitions: their set-up takes
// milliseconds, so its median needs more samples than the repetitions
// give.
const setupProbes = 50

// untraced measures the end-to-end metrics.
func (rn *runner) untraced() (summary, error) {
	var reps []repResult
	var err error
	switch rn.workload {
	case "addressing":
		// The load runs in one process, in rounds, after a warm-up.
		var r repResult
		r, err = rn.spawn("rep", false)
		reps = []repResult{r}
	case "durable_census":
		// A child already runs the grid durableRuns times.
		reps, err = rn.repeat(rn.seconds, 2, false)
	case "warm_restart":
		if _, err = rn.warmFixture(); err != nil {
			return summary{}, err
		}
		fallthrough
	default:
		reps, err = rn.repeat(rn.seconds, 3, false)
	}
	if err != nil {
		return summary{}, err
	}
	s := summarize(reps)
	if rn.workload == "durable_census" {
		return s, nil
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS)
	}
	for i := 0; i < setupProbes; i++ {
		r, err := rn.spawn("setup", false)
		if err != nil {
			return summary{}, err
		}
		setups = append(setups, r.SetupS)
	}
	s.metrics["setup_s"] = median(setups)
	return s, nil
}

// traced runs a short untraced pass and one traced repetition on the
// same seed, and reports the traced child's per-layer metrics plus the
// tracing overhead on wall time.
func (rn *runner) traced() (summary, map[string]float64, error) {
	layers := map[string]float64{}
	var untraced []repResult
	switch rn.workload {
	case "addressing":
		// Half the time untraced, half traced.
		rn.seconds /= 2
		r, err := rn.spawn("rep", false)
		if err != nil {
			return summary{}, nil, err
		}
		untraced = []repResult{r}
	case "warm_restart":
		packS, err := rn.warmFixture()
		if err != nil {
			return summary{}, nil, err
		}
		layers["store.pack_build_s"] = packS
		fallthrough
	default:
		reps, err := rn.repeat(0, 2, false)
		if err != nil {
			return summary{}, nil, err
		}
		untraced = reps
	}
	if rn.workload == "durable_census" {
		band, err := rn.spawn("band", false)
		if err != nil {
			return summary{}, nil, err
		}
		layers["iso.band_s"] = band.Layers["iso.band_s"]
	}
	tr, err := rn.spawn("rep", true)
	if err != nil {
		return summary{}, nil, err
	}
	for k, v := range tr.Layers {
		layers[k] = v
	}
	base := summarize(untraced).metrics["wall_s"]
	if base <= 0 {
		return summary{}, nil, errors.New("untraced pass measured no wall time")
	}
	layers["trace.overhead_frac"] = (tr.WallS - base) / base
	return summarize(append(untraced, tr)), layers, nil
}
