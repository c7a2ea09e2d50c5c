package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/network"
	"gfcube/internal/service"
	"gfcube/internal/store"
)

// addressingRoundSize is the request count of one addressing round; each
// round draws fresh words and is timed as one unit of fixed work.
const addressingRoundSize = 2048

// warmTraceLen is the warm-restart trace length.
const warmTraceLen = 20000

// replayed is the outcome of replaying requests against a handler.
type replayed struct {
	latMs  []float64
	codes  []int
	bodies [][]byte
	wall   time.Duration
}

// replay drives h with callers closed-loop clients: each sends its next
// request only when the previous one has returned. Requests are handed
// out in order from a shared cursor. Latency is the ServeHTTP call.
func replay(h http.Handler, reqs []request, callers int, tr *Tracer, idBase int) replayed {
	out := replayed{latMs: make([]float64, len(reqs)), codes: make([]int, len(reqs)), bodies: make([][]byte, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				req := httptest.NewRequest(http.MethodGet, reqs[i].Path, nil)
				rec := httptest.NewRecorder()
				id := tr.Begin("service."+reqs[i].Op, 0, strconv.Itoa(idBase+i))
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				out.latMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.End(id)
				out.codes[i] = rec.Code
				out.bodies[i] = rec.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// get fetches an introspection endpoint from the handler.
func get(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

// answer is the union of the response fields the checks read.
type answer struct {
	Factor    string   `json:"factor"`
	D         int      `json:"d"`
	Word      string   `json:"word"`
	Rank      string   `json:"rank"`
	Order     string   `json:"order"`
	V         string   `json:"v"`
	Degree    int      `json:"degree"`
	Delivered bool     `json:"delivered"`
	Hops      int      `json:"hops"`
	Path      []string `json:"path"`
	Ranks     []string `json:"ranks"`
	Neighbors []struct {
		Rank string `json:"rank"`
		Word string `json:"word"`
	} `json:"neighbors"`
}

// classRanker holds the automaton tables of one addressing class.
type classRanker struct {
	dfa *automaton.DFA
	rk  *automaton.Ranker
}

// expected is an addressing answer precomputed from the automaton before
// the round is timed.
type expected struct {
	rank      uint64
	word      string
	order     string
	neighbors []string // "rank:word", sorted
	delivered bool     // route: whether the word router reaches dst
	path      string   // route: the word router's path, comma-joined
}

func newClassRankers() []classRanker {
	out := make([]classRanker, len(addressingClasses))
	for i, cl := range addressingClasses {
		f := bitstr.MustParse(cl.F)
		out[i] = classRanker{dfa: automaton.New(f), rk: automaton.NewRanker(f, cl.D)}
	}
	return out
}

func (cr classRanker) rank(w bitstr.Word) uint64 {
	r, err := cr.rk.RankU64(w)
	if err != nil {
		panic(fmt.Sprintf("generated word %s is not a vertex: %v", w, err))
	}
	return r
}

func rankerFor(rks []classRanker, f bitstr.Word) classRanker {
	for i, cl := range addressingClasses {
		if cl.F == f.String() {
			return rks[i]
		}
	}
	panic("unknown addressing class " + f.String())
}

// expect precomputes the answers of one addressing round.
func expect(reqs []request, rks []classRanker) []expected {
	out := make([]expected, len(reqs))
	for i, q := range reqs {
		cr := rankerFor(rks, q.F)
		e := expected{order: strconv.FormatUint(cr.rk.TotalU64(), 10)}
		switch q.Op {
		case "rank":
			e.rank = cr.rank(q.W)
		case "unrank":
			w, err := cr.rk.UnrankU64(q.R)
			if err != nil {
				panic(err)
			}
			e.word = w.String()
			e.rank = cr.rank(w) // the round trip the response must agree with
		case "neighbors":
			for p := 0; p < q.D; p++ {
				if v := q.W.Flip(p); cr.dfa.Avoids(v) {
					e.neighbors = append(e.neighbors, fmt.Sprintf("%d:%s", cr.rank(v), v))
				}
			}
			sort.Strings(e.neighbors)
		case "route":
			// Greedy word routing can get stuck in a non-isometric cube, so
			// delivery is not guaranteed; the service must agree with the
			// word-level router, which walks words rather than the implicit
			// view the service routes over.
			path, ok := network.NewWordRouter(q.F).Route(q.W, q.W2, 0)
			e.delivered = ok
			if ok {
				var hops []string
				for _, w := range path {
					hops = append(hops, w.String())
				}
				e.path = strings.Join(hops, ",")
			}
		}
		out[i] = e
	}
	return out
}

// checkAddressing verifies one round's responses against the
// precomputed answers; a non-200 response or a wrong field is a failure.
func checkAddressing(res *repResult, reqs []request, exp []expected, rp replayed, rks []classRanker) {
	for i, q := range reqs {
		if rp.codes[i] != http.StatusOK {
			res.fail("%s: status %d: %s", q.Path, rp.codes[i], strings.TrimSpace(string(rp.bodies[i])))
			continue
		}
		var a answer
		if err := json.Unmarshal(rp.bodies[i], &a); err != nil {
			res.fail("%s: %v", q.Path, err)
			continue
		}
		e := exp[i]
		var bad string
		switch q.Op {
		case "rank":
			if a.Rank != strconv.FormatUint(e.rank, 10) || a.Order != e.order {
				bad = fmt.Sprintf("rank %s order %s, want %d %s", a.Rank, a.Order, e.rank, e.order)
			}
		case "unrank":
			if a.Word != e.word || a.Rank != strconv.FormatUint(e.rank, 10) {
				bad = fmt.Sprintf("word %s, want %s", a.Word, e.word)
			}
		case "count":
			if a.V != e.order || a.D != q.D {
				bad = fmt.Sprintf("v %s, want %s", a.V, e.order)
			}
		case "neighbors":
			var got []string
			for _, n := range a.Neighbors {
				got = append(got, n.Rank+":"+n.Word)
			}
			sort.Strings(got)
			if a.Degree != len(e.neighbors) || strings.Join(got, ",") != strings.Join(e.neighbors, ",") {
				bad = fmt.Sprintf("neighbors %v, want %v", got, e.neighbors)
			}
		case "route":
			if a.Delivered != e.delivered || strings.Join(a.Path, ",") != e.path {
				bad = fmt.Sprintf("delivered=%v path %v, want delivered=%v path %s", a.Delivered, a.Path, e.delivered, e.path)
			} else if a.Delivered {
				bad = checkWordRoute(a, q, rankerFor(rks, q.F))
			}
		}
		if bad != "" {
			res.fail("%s: %s", q.Path, bad)
		}
	}
}

// checkWordRoute checks a delivered path without any router: it must run
// from src to dst along edges of Q_d(f), each hop carrying the rank the
// automaton gives its word.
func checkWordRoute(a answer, q request, cr classRanker) string {
	if len(a.Path) == 0 || a.Path[0] != q.W.String() || a.Path[len(a.Path)-1] != q.W2.String() ||
		a.Hops != len(a.Path)-1 || len(a.Ranks) != len(a.Path) {
		return fmt.Sprintf("route of %d hops has %d words and %d ranks", a.Hops, len(a.Path), len(a.Ranks))
	}
	var prev bitstr.Word
	for i, s := range a.Path {
		w, err := bitstr.Parse(s)
		if err != nil || w.Len() != q.D || !cr.dfa.Avoids(w) {
			return fmt.Sprintf("hop %d word %s is not a vertex", i, s)
		}
		if i > 0 && w.HammingDistance(prev) != 1 {
			return fmt.Sprintf("hop %d is not an edge", i)
		}
		if a.Ranks[i] != strconv.FormatUint(cr.rank(w), 10) {
			return fmt.Sprintf("hop %d rank %s is wrong", i, a.Ranks[i])
		}
		prev = w
	}
	return ""
}

// addressingRep serves the addressing mix from an in-process gfc-serve
// handler with default settings. In setup mode it stops once the server
// is up. Rounds run until the measurement time has been spent replaying.
func addressingRep(a childArgs) (repResult, error) {
	var res repResult
	srv, err := service.New(service.Config{})
	if err != nil {
		return res, err
	}
	h := srv.Handler()
	res.SetupS = a.sinceSpawn()
	defer srv.Shutdown(context.Background())
	if a.Mode == "setup" {
		return res, nil
	}
	var tr *Tracer
	if a.Traced {
		tr = newTracer()
	}
	rks := newClassRankers()
	orders := make([]uint64, len(rks))
	for i, cr := range rks {
		orders[i] = cr.rk.TotalU64()
	}
	// Untimed warm-up round: lazy set-up (implicit views, lanes) settles.
	warm := addressingRound(a.Seed, -1, addressingRoundSize, orders)
	replay(h, warm, nproc(), nil, 0)

	var (
		lat    []float64
		walls  []float64
		timed  time.Duration
		rounds [][]request
	)
	for k := 0; timed.Seconds() < a.Seconds; k++ {
		reqs := addressingRound(a.Seed, k, addressingRoundSize, orders)
		exp := expect(reqs, rks)
		rp := replay(h, reqs, nproc(), tr, k*addressingRoundSize)
		timed += rp.wall
		walls = append(walls, rp.wall.Seconds())
		lat = append(lat, rp.latMs...)
		res.Attempted += len(reqs)
		checkAddressing(&res, reqs, exp, rp, rks)
		if tr != nil {
			rounds = append(rounds, reqs)
		}
	}
	res.WallS = median(walls)
	res.RPS = float64(len(lat)) / timed.Seconds()
	if res.P50Ms, err = percentile(lat, 0.5); err != nil {
		return res, err
	}
	if res.P90Ms, err = percentile(lat, 0.9); err != nil {
		return res, err
	}
	if tr != nil {
		res.Layers = serviceLayers(h, tr, lat)
		for k, v := range automatonLayers(rounds, rks) {
			res.Layers[k] = v
		}
		res.Layers["trace.spans"] = float64(len(tr.Spans()))
		if err := writeTrace(a, tr); err != nil {
			return res, err
		}
	}
	return res, nil
}

// serviceLayers reads the service's own counters after a traced replay:
// per-endpoint handler p50 from the spans, batch queue wait and
// occupancy from /metrics, cache and store hit rates from /stats.
func serviceLayers(h http.Handler, tr *Tracer, lat []float64) map[string]float64 {
	spans := tr.Spans()
	out := map[string]float64{}
	for _, op := range []string{"count", "rank", "unrank", "neighbors", "route", "broadcast"} {
		if xs := spanDurations(spans, "service."+op); len(xs) > 0 {
			if p, err := percentile(xs, 0.5); err == nil {
				out["service.handler_us."+op] = p / 1e3
			}
		}
	}
	m := promSums(get(h, "/metrics"))
	if n := m["gfc_batch_queue_wait_seconds_count"]; n > 0 {
		out["service.batch_wait_us"] = m["gfc_batch_queue_wait_seconds_sum"] / n * 1e6
	}
	if n := m["gfc_batch_occupancy_count"]; n > 0 {
		out["service.batch_occupancy"] = m["gfc_batch_occupancy_sum"] / n
	}
	var st struct {
		CacheHitRate float64 `json:"cacheHitRate"`
		Store        *struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"store"`
	}
	if err := json.Unmarshal(get(h, "/stats"), &st); err == nil {
		out["service.cache_hit_frac"] = st.CacheHitRate
		if st.Store != nil && st.Store.Hits+st.Store.Misses > 0 {
			out["store.hit_frac"] = st.Store.Hits / (st.Store.Hits + st.Store.Misses)
		}
	}
	if p, err := percentile(lat, 0.99); err == nil {
		out["service.p99_ms"] = p
	}
	if p, err := percentile(lat, 0.999); err == nil {
		out["service.p999_ms"] = p
	}
	return out
}

// promSums adds up every sample of each metric family in a Prometheus
// text exposition, across label sets.
func promSums(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			_, rest, _ = strings.Cut(line[strings.LastIndexByte(line, '}'):], " ")
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// automatonLayers times the automaton on the addressing trace's own
// inputs: RankU64 on its rank words and UnrankU64 on its unrank ranks
// (per call, in batches of 32), the counting DP and ranker construction
// per class.
func automatonLayers(rounds [][]request, rks []classRanker) map[string]float64 {
	const batch = 32
	perCall := func(n int, fn func(i int)) []float64 {
		var out []float64
		for lo := 0; lo+batch <= n; lo += batch {
			t0 := time.Now()
			for i := lo; i < lo+batch; i++ {
				fn(i)
			}
			out = append(out, float64(time.Since(t0).Nanoseconds())/batch)
		}
		return out
	}
	type call struct {
		rk *automaton.Ranker
		q  request
	}
	var ranks, unranks []call
	for _, reqs := range rounds {
		for _, q := range reqs {
			c := call{rankerFor(rks, q.F).rk, q}
			switch q.Op {
			case "rank":
				ranks = append(ranks, c)
			case "unrank":
				unranks = append(unranks, c)
			}
		}
	}
	out := map[string]float64{}
	if p, err := percentile(perCall(len(ranks), func(i int) { _, _ = ranks[i].rk.RankU64(ranks[i].q.W) }), 0.5); err == nil {
		out["automaton.rank_ns"] = p
	}
	if p, err := percentile(perCall(len(unranks), func(i int) { _, _ = unranks[i].rk.UnrankU64(unranks[i].q.R) }), 0.5); err == nil {
		out["automaton.unrank_ns"] = p
	}
	var count, build []float64
	var cs automaton.CountScratch
	for rep := 0; rep < 20; rep++ {
		for i, cl := range addressingClasses {
			t0 := time.Now()
			rks[i].dfa.CountVerticesInto(&cs, cl.D)
			count = append(count, float64(time.Since(t0).Nanoseconds())/1e3)
			t0 = time.Now()
			automaton.NewRanker(rks[i].dfa.Factor(), cl.D)
			build = append(build, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	if p, err := percentile(count, 0.5); err == nil {
		out["automaton.count_us"] = p
	}
	if p, err := percentile(build, 0.5); err == nil {
		out["automaton.ranker_build_us"] = p
	}
	return out
}

// normalize renders a response for comparison with the reference server:
// provenance fields (elapsed, source, cached) are dropped, and a count
// answered from the warm pack's verdict sidecar reports the DP backend
// alone ("dp") where a computed one reports "implicit+dp" — both are
// accepted as the same answer.
func normalize(op string, body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", err
	}
	delete(m, "elapsed")
	delete(m, "source")
	delete(m, "cached")
	if op == "count" && m["backend"] == "dp" {
		m["backend"] = "implicit+dp"
	}
	out, err := json.Marshal(m)
	return string(out), err
}

func packDir(dir string) string     { return filepath.Join(dir, "pack") }
func warmRefPath(dir string) string { return filepath.Join(dir, "warm_ref.json") }

// warmFixture builds the warm pack with the commit under test (gfc-pack
// defaults) and records the reference answers of a StoreDisabled server
// for the run's trace. It returns the pack build time.
func (rn *runner) warmFixture() (float64, error) {
	t0 := time.Now()
	if _, err := store.Generate(packDir(rn.dir), store.PackOptions{}); err != nil {
		return 0, fmt.Errorf("building the warm pack: %w", err)
	}
	packS := time.Since(t0).Seconds()

	srv, err := service.New(service.Config{WarmPack: packDir(rn.dir), StoreDisabled: true})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	trace := warmTrace(rn.seed, warmTraceLen)
	rp := replay(srv.Handler(), trace, nproc(), nil, 0)
	ref := make([]string, len(trace))
	for i, q := range trace {
		if rp.codes[i] != http.StatusOK {
			return 0, fmt.Errorf("reference server: %s: status %d: %s", q.Path, rp.codes[i], rp.bodies[i])
		}
		if ref[i], err = normalize(q.Op, rp.bodies[i]); err != nil {
			return 0, err
		}
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return 0, err
	}
	return packS, os.WriteFile(warmRefPath(rn.dir), data, 0o644)
}

// warmRep restarts a server on the warm pack and replays the trace with
// nproc closed-loop callers; every answer must match the reference.
func warmRep(a childArgs) (repResult, error) {
	var res repResult
	srv, err := service.New(service.Config{WarmPack: packDir(a.Dir)})
	if err != nil {
		return res, err
	}
	h := srv.Handler()
	res.SetupS = a.sinceSpawn()
	defer srv.Shutdown(context.Background())
	if a.Mode == "setup" {
		return res, nil
	}

	var tr *Tracer
	if a.Traced {
		tr = newTracer()
	}
	trace := warmTrace(a.Seed, warmTraceLen)
	rp := replay(h, trace, nproc(), tr, 0)
	res.WallS = rp.wall.Seconds()
	res.RPS = float64(len(trace)) / rp.wall.Seconds()
	res.Attempted = len(trace)
	if res.P50Ms, err = percentile(rp.latMs, 0.5); err != nil {
		return res, err
	}
	if res.P90Ms, err = percentile(rp.latMs, 0.9); err != nil {
		return res, err
	}

	data, err := os.ReadFile(warmRefPath(a.Dir))
	if err != nil {
		return res, err
	}
	var ref []string
	if err := json.Unmarshal(data, &ref); err != nil {
		return res, err
	}
	for i, q := range trace {
		if rp.codes[i] != http.StatusOK {
			res.fail("%s: status %d: %s", q.Path, rp.codes[i], strings.TrimSpace(string(rp.bodies[i])))
			continue
		}
		got, err := normalize(q.Op, rp.bodies[i])
		if err != nil || i >= len(ref) || got != ref[i] {
			res.fail("%s: answer differs from the reference server", q.Path)
		}
	}

	if tr != nil {
		res.Layers = serviceLayers(h, tr, rp.latMs)
		probes, err := warmProbes(packDir(a.Dir), trace, tr)
		if err != nil {
			return res, err
		}
		for k, v := range probes {
			res.Layers[k] = v
		}
		res.Layers["trace.spans"] = float64(len(tr.Spans()))
		if err := writeTrace(a, tr); err != nil {
			return res, err
		}
	}
	return res, nil
}

// warmProbes times the store, core, network and automaton calls behind
// the warm-restart trace on its own cells: artifact decode (the checksum
// check), cube load-and-verify, greedy routing and broadcast over the
// loaded cubes, and ranker construction.
func warmProbes(pack string, trace []request, tr *Tracer) (map[string]float64, error) {
	type cellKey struct {
		f bitstr.Word
		d int
	}
	cubes := map[cellKey]*core.Cube{}
	var decode, load, build, route []float64
	for _, q := range trace {
		k := cellKey{q.F, q.D}
		if _, seen := cubes[k]; seen {
			continue
		}
		var payload []byte
		for _, kind := range []store.Kind{store.KindRanker, store.KindCube} {
			key := store.Key{Kind: kind, F: q.F, D: q.D}
			data, err := os.ReadFile(filepath.Join(pack, key.Filename()))
			if err != nil {
				return nil, err
			}
			id := tr.Begin("store.decode", 0, key.String())
			t0 := time.Now()
			p, err := store.DecodeArtifact(key, data)
			decode = append(decode, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.End(id)
			if err != nil {
				return nil, err
			}
			payload = p
		}
		id := tr.Begin("core.load_cube", 0, k.f.String())
		t0 := time.Now()
		c, err := core.LoadCube(payload, q.D, q.F)
		load = append(load, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		cubes[k] = c
		id = tr.Begin("automaton.new_ranker", 0, k.f.String())
		t0 = time.Now()
		automaton.NewRanker(q.F, q.D)
		build = append(build, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.End(id)
	}
	for i, q := range trace {
		if q.Op != "route" && q.Op != "broadcast" {
			continue
		}
		c := cubes[cellKey{q.F, q.D}]
		n := network.New(c)
		a, _ := c.Rank(q.W)
		id := tr.Begin("network."+q.Op, 0, strconv.Itoa(i))
		t0 := time.Now()
		if q.Op == "route" {
			b, _ := c.Rank(q.W2)
			n.Route(network.NewGreedyRouter(n), a, b, 0)
		} else {
			n.Broadcast(a)
		}
		route = append(route, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.End(id)
	}
	out := map[string]float64{}
	for name, xs := range map[string][]float64{
		"store.decode_us":           decode,
		"core.load_verify_us":       load,
		"automaton.ranker_build_us": build,
		"network.route_us":          route,
	} {
		if p, err := percentile(xs, 0.5); err == nil {
			out[name] = p
		}
	}
	return out, nil
}
