package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/fabric"
	"gfcube/internal/graph"
	"gfcube/internal/iso"
	"gfcube/internal/sweep"
)

// The census grid is gfc-survey's default length, two dimensions deeper:
// gfc-survey -len 6 -maxd 13. It is a fixed mathematical object, so the
// seed does not change it.
const censusLen, censusMaxD = 6, 13

// censusRef is `gfc-survey -len 6 -maxd 13 -json`; durableRef is the
// fabric oracle's result set for the same grid (`gfc-sweepd -op survey
// -minlen 6 -maxlen 6 -maxd 13 -oracle`). Both were produced by the
// repository's own commands, not by this harness.
var (
	//go:embed testdata/census_rows.json
	censusRef []byte
	//go:embed testdata/durable_resultset.ndjson
	durableRef []byte
)

// surveyRow is gfc-survey's JSON row.
type surveyRow struct {
	Factor    string `json:"factor"`
	ClassSize int    `json:"classSize"`
	FirstFail int    `json:"firstFail"`
	Theory    string `json:"theory"`
}

// renderSurvey renders rows exactly as gfc-survey -json does: failing
// classes first by first failure, good classes last, ties in grid order.
func renderSurvey(rows []sweep.SurveyRow) []surveyRow {
	out := make([]surveyRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, surveyRow{Factor: r.Class.Rep.String(), ClassSize: r.Class.Size, FirstFail: r.FirstFail, Theory: r.Theory})
	}
	key := func(ff int) int {
		if ff == 0 {
			return math.MaxInt
		}
		return ff
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i].FirstFail) < key(out[j].FirstFail) })
	return out
}

// checkCensus compares rendered rows with the reference: one failure per
// row that differs or is missing, and one if the bytes differ anyway.
func checkCensus(res *repResult, rows []sweep.SurveyRow) {
	got := renderSurvey(rows)
	var want []surveyRow
	if err := json.Unmarshal(censusRef, &want); err != nil {
		res.fail("census reference: %v", err)
		return
	}
	bad := 0
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			res.fail("census row %d differs from the reference", i)
			bad++
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil || (bad == 0 && !bytes.Equal(buf.Bytes(), censusRef)) {
		res.fail("census output is not byte-identical to the reference")
	}
}

// milestones converts completion offsets into the times by which half
// and nine tenths of the grid were done, in milliseconds.
func milestones(marks []time.Duration, total int) (p50, p90 float64) {
	at := func(q float64) float64 {
		k := int(math.Ceil(q*float64(total))) - 1
		if k < 0 || k >= len(marks) {
			return 0
		}
		return float64(marks[k].Nanoseconds()) / 1e6
	}
	return at(0.5), at(0.9)
}

func censusSpec() sweep.GridSpec {
	return sweep.GridSpec{MinLen: censusLen, MaxLen: censusLen, MaxD: censusMaxD, Method: core.MethodExact}
}

// censusRep runs the census once through sweep.Survey, or, traced,
// through the same scan with spans around each core call.
func censusRep(a childArgs) (repResult, error) {
	ctx := context.Background()
	tasks := sweep.ClassTasks(censusLen, censusLen)
	var res repResult
	res.SetupS = a.sinceSpawn()
	if a.Mode == "setup" {
		return res, nil
	}

	var (
		marks []time.Duration
		start time.Time
	)
	opts := sweep.Options{Workers: nproc(), Progress: func(done, total int) { marks = append(marks, time.Since(start)) }}
	var (
		rows []sweep.SurveyRow
		ts   *tracedSweep
		err  error
	)
	var tr *Tracer
	if a.Traced {
		tr = newTracer()
	}
	reuse0, rebuild0 := core.ColumnCounters()
	start = time.Now()
	if tr == nil {
		rows, err = sweep.Survey(ctx, censusSpec(), opts)
	} else {
		ts, err = runTracedSurvey(ctx, tasks, opts, tr)
		if ts != nil {
			rows = ts.rows
		}
	}
	wall := time.Since(start)
	if err != nil {
		return res, err
	}
	res.WallS = wall.Seconds()
	res.P50Ms, res.P90Ms = milestones(marks, len(tasks))
	res.RPS = float64(len(tasks)) / wall.Seconds()
	res.Attempted = len(tasks)
	checkCensus(&res, rows)

	if tr != nil {
		reuse1, rebuild1 := core.ColumnCounters()
		res.Layers = ts.layers(tr, wall, opts.Workers)
		if n := float64(reuse1-reuse0) + float64(rebuild1-rebuild0); n > 0 {
			res.Layers["core.column_reuse_frac"] = float64(reuse1-reuse0) / n
		}
		res.Layers["graph.msbfs_sources_per_s"] = msbfsRate(ts.deepest, tr)
		res.Layers["trace.spans"] = float64(len(tr.Spans()))
		if err := writeTrace(a, tr); err != nil {
			return res, err
		}
	}
	return res, nil
}

// tracedSweep is a census scan run through sweep.Run with the survey's
// per-class body written out, so each core call gets its own span.
type tracedSweep struct {
	rows    []sweep.SurveyRow
	busy    time.Duration // sum of Result.Elapsed
	deepest []*core.Cube  // the last cube each class scanned
}

// runTracedSurvey scans every class exactly as sweep.Survey does: from
// d = |f|+1 up to the first non-isometric d. tr may be nil.
func runTracedSurvey(ctx context.Context, tasks []sweep.Task, opts sweep.Options, tr *Tracer) (*tracedSweep, error) {
	var mu sync.Mutex
	ts := &tracedSweep{}
	fn := func(ctx context.Context, s *core.Scratch, t sweep.Task) (any, error) {
		req := t.Class.Rep.String()
		cell := tr.Begin("sweep.cell", 0, req)
		defer tr.End(cell)
		row := sweep.SurveyRow{Class: t.Class, Theory: "-"}
		if c := core.Classify(t.Class.Rep, censusMaxD); c.Verdict != core.Unknown {
			row.Theory = c.Reason
		}
		var last *core.Cube
		for d := t.Class.Rep.Len() + 1; d <= censusMaxD; d++ {
			id := tr.Begin("core.cube", cell, req)
			c := s.Cube(ctx, d, t.Class.Rep)
			tr.End(id)
			id = tr.Begin("core.isometric", cell, req)
			ok := s.IsIsometric(c).Isometric
			tr.End(id)
			last = c
			if !ok {
				row.FirstFail = d
				break
			}
		}
		mu.Lock()
		ts.deepest = append(ts.deepest, last)
		mu.Unlock()
		return row, nil
	}
	results, err := sweep.Run(ctx, tasks, fn, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		ts.rows = append(ts.rows, r.Value.(sweep.SurveyRow))
		ts.busy += r.Elapsed
	}
	return ts, nil
}

// layers derives the sweep and core per-layer metrics from the spans.
func (ts *tracedSweep) layers(tr *Tracer, wall time.Duration, workers int) map[string]float64 {
	spans := tr.Spans()
	self := selfTimes(spans)
	return map[string]float64{
		"core.build_s":      self["core.cube"].Seconds(),
		"core.builds":       float64(len(spanDurations(spans, "core.cube"))),
		"core.isometric_s":  self["core.isometric"].Seconds(),
		"sweep.cells":       float64(len(spanDurations(spans, "core.isometric"))),
		"sweep.busy_s":      ts.busy.Seconds(),
		"sweep.self_s":      self["sweep.cell"].Seconds(),
		"sweep.worker_util": ts.busy.Seconds() / (wall.Seconds() * float64(workers)),
	}
}

// msbfsRate runs the distance engine over every source of the census's
// deepest cubes and returns sources settled per second.
func msbfsRate(cubes []*core.Cube, tr *Tracer) float64 {
	sources := 0
	var busy time.Duration
	for _, c := range cubes {
		e := graph.NewMSBFS(c.Graph())
		id := tr.Begin("graph.msbfs", 0, c.Factor().String())
		t0 := time.Now()
		e.RunAll(func(*graph.DistBlock) bool { return true })
		busy += time.Since(t0)
		tr.End(id)
		sources += c.N()
	}
	if busy <= 0 {
		return 0
	}
	return float64(sources) / busy.Seconds()
}

// writeTrace saves a traced child's spans under workDir/traces.
func writeTrace(a childArgs, tr *Tracer) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", a.Workload, a.Seed))
	fmt.Fprintf(os.Stderr, "gfcbench: spans written to %s\n", path)
	return tr.WriteJSON(path)
}

func durableSpec() (fabric.Spec, error) {
	return fabric.Spec{
		Op: fabric.OpSurvey, MinLen: censusLen, MaxLen: censusLen,
		MinD: 1, MaxD: censusMaxD, Method: core.MethodExact.String(),
	}.Normalize()
}

// durableRuns is how many times one durable_census child runs the grid.
// Only the first run pays the iso partition (iso memoizes it
// process-wide), so set-up is taken from the first run of each child
// and the sweep figures from all of them.
const durableRuns = 4

// durableRun is one pass of the grid through the fabric into a fresh
// ledger.
type durableRun struct {
	init, wall time.Duration
	marks      []time.Duration
	co         *fabric.Coordinator
	scan       fabric.ScanResult
	ledger     string
}

// runDurable runs the census the way gfc-survey -resume does: a fresh
// ledger on local disk, nproc in-process fabric workers, one
// coordinator. ready is called once the coordinator can lease work.
func runDurable(ctx context.Context, dir string, sp fabric.Spec, tr *Tracer, ready func()) (durableRun, error) {
	var run durableRun
	run.ledger = filepath.Join(dir, fmt.Sprintf("ledger-%d-%d", os.Getpid(), time.Now().UnixNano()))
	id := tr.Begin("fabric.create_ledger", 0, "")
	l, err := fabric.CreateLedger(run.ledger, sp)
	tr.End(id)
	if err != nil {
		return run, err
	}
	var workers []fabric.Worker
	for i := 0; i < nproc(); i++ {
		h := fabric.NewHost(fabric.HostConfig{})
		defer h.Close()
		workers = append(workers, fabric.NewLocalWorker(fmt.Sprintf("local%d", i), h))
	}
	var start time.Time
	opts := fabric.Options{Workers: workers, Progress: func(done, total int) { run.marks = append(run.marks, time.Since(start)) }}
	id = tr.Begin("fabric.new_coordinator", 0, "")
	t0 := time.Now()
	co, err := fabric.NewCoordinator(sp, l, opts)
	run.init = time.Since(t0)
	tr.End(id)
	if err != nil {
		l.Close()
		return run, err
	}
	ready()
	run.co = co

	id = tr.Begin("fabric.run", 0, "")
	start = time.Now()
	err = co.Run(ctx)
	run.wall = time.Since(start)
	tr.End(id)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return run, err
	}
	id = tr.Begin("fabric.verify_ledger", 0, "")
	run.scan, err = fabric.VerifyLedger(run.ledger)
	tr.End(id)
	return run, err
}

// durableRep runs the durable census durableRuns times in this process
// (once when traced) and reports the median of each sweep figure.
func durableRep(a childArgs) (repResult, error) {
	ctx := context.Background()
	var res repResult
	var tr *Tracer
	runs := durableRuns
	if a.Traced {
		tr = newTracer()
		runs = 1
	}
	sp, err := durableSpec()
	if err != nil {
		return res, err
	}
	var walls, p50s, p90s, rates []float64
	var last durableRun
	for i := 0; i < runs; i++ {
		run, err := runDurable(ctx, a.Dir, sp, tr, func() {
			if i == 0 {
				res.SetupS = a.sinceSpawn()
			}
		})
		os.Remove(run.ledger)
		if err != nil {
			return res, err
		}
		total := run.co.Total()
		p50, p90 := milestones(run.marks, total)
		walls = append(walls, run.wall.Seconds())
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		rates = append(rates, float64(total)/run.wall.Seconds())
		res.Attempted += total
		checkLedger(&res, run.scan, total)
		last = run
	}
	res.WallS, res.P50Ms, res.P90Ms, res.RPS = median(walls), median(p50s), median(p90s), median(rates)

	if tr != nil {
		c := last.co.Counters()
		appends, dups := float64(c.LedgerAppends.Load()), float64(c.DuplicatesDropped.Load())
		res.Layers = map[string]float64{
			"fabric.coordinator_init_s": last.init.Seconds(),
			"fabric.run_s":              last.wall.Seconds(),
			"fabric.leases":             float64(c.LeasesGranted.Load()),
			"fabric.steals":             float64(c.Steals.Load()),
			"fabric.requeues":           float64(c.ShardsRequeued.Load()),
			"fabric.dup_frac":           dups / (appends + dups),
		}
		// The same cells computed by the plain sweep engine: the busy time
		// a perfectly fed fabric would need, against which the run's idle
		// share is measured.
		ts, err := runTracedSurvey(ctx, sweep.ClassTasks(censusLen, censusLen), sweep.Options{Workers: nproc()}, nil)
		if err != nil {
			return res, err
		}
		res.Layers["sweep.busy_s"] = ts.busy.Seconds()
		res.Layers["fabric.idle_frac"] = 1 - ts.busy.Seconds()/(last.wall.Seconds()*float64(nproc()))
		appendUS, err := ledgerAppendP50(a.Dir, sp, last.scan.Records, tr)
		if err != nil {
			return res, err
		}
		res.Layers["fabric.ledger_append_us"] = appendUS
		res.Layers["trace.spans"] = float64(len(tr.Spans()))
		if err := writeTrace(a, tr); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkLedger verifies the finished ledger: chain intact, every cell
// present once, and the result set byte-identical to the oracle's.
func checkLedger(res *repResult, scan fabric.ScanResult, total int) {
	if scan.Damaged {
		res.fail("ledger damaged: %s", scan.DamageReason)
	}
	if scan.Duplicates != 0 {
		res.fail("ledger holds %d duplicate cells", scan.Duplicates)
	}
	if len(scan.Records) != total {
		res.fail("ledger holds %d of %d cells", len(scan.Records), total)
	}
	got, err := fabric.ResultSet(scan.Records)
	if err != nil {
		res.fail("result set: %v", err)
		return
	}
	gl := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	wl := strings.Split(strings.TrimSuffix(string(durableRef), "\n"), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			res.fail("result-set line %d differs from the oracle reference", i)
		}
	}
}

// ledgerAppendP50 replays the run's records into fresh ledgers, timing
// each Ledger.Append, and returns the median in microseconds.
func ledgerAppendP50(dir string, sp fabric.Spec, recs []fabric.Record, tr *Tracer) (float64, error) {
	var us []float64
	for round := 0; round < 5; round++ {
		path := filepath.Join(dir, fmt.Sprintf("replay-%d-%d", os.Getpid(), round))
		l, err := fabric.CreateLedger(path, sp)
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			id := tr.Begin("fabric.ledger_append", 0, fmt.Sprint(rec.I))
			t0 := time.Now()
			err = l.Append(rec)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.End(id)
			if err != nil {
				break
			}
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		os.Remove(path)
		if err != nil {
			return 0, err
		}
	}
	return percentile(us, 0.5)
}

// bandProbe times iso.Band on the durable grid's classes in a process of
// its own: iso memoizes partitions process-wide, so a second call in the
// coordinator's process would measure a map lookup.
func bandProbe() (repResult, error) {
	classes := core.Classes(censusLen, censusLen)
	t0 := time.Now()
	p := iso.Band(1, censusMaxD, classes)
	band := time.Since(t0)
	return repResult{Attempted: p.NumClasses(), Layers: map[string]float64{"iso.band_s": band.Seconds()}}, nil
}
