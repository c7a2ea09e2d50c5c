package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/store"
)

func mustUnmarshal(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode: %v\nbody: %s", err, data)
	}
}

// testPack generates a small warm-start pack into the test's temp dir;
// the grid (|f| <= 2, d <= 5) keeps generation well under a second.
func testPack(t *testing.T) (string, store.Manifest) {
	t.Helper()
	dir := t.TempDir()
	man, err := store.Generate(dir, store.PackOptions{MinLen: 1, MaxLen: 2, MaxD: 5})
	if err != nil {
		t.Fatalf("generating test pack: %v", err)
	}
	return dir, man
}

// freeWord returns an f-free word of length d (rank 0 of Q_d(f)).
func freeWord(t *testing.T, f bitstr.Word, d int) string {
	t.Helper()
	w, ok := core.NewImplicit(d, f).UnrankWord(0)
	if !ok {
		t.Fatalf("Q_%d(%s) is empty", d, f)
	}
	return w.String()
}

// TestWarmPackServesWithZeroRebuilds is the warm-start acceptance test:
// a freshly started server mounted on a pack must answer one query per
// packed (f, d) class entirely from artifacts — store hits equal to the
// request count, zero computed backends — with every response
// attributing source "store".
func TestWarmPackServesWithZeroRebuilds(t *testing.T) {
	dir, man := testPack(t)
	s := mustNew(t, Config{Workers: 4, JobTimeout: time.Minute, WarmPack: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	requests := 0
	for n := man.MinLen; n <= man.MaxLen; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			f := bitstr.Word{Bits: bits, N: n}
			for d := 1; d <= man.MaxD; d++ {
				var resp RankResponse
				url := fmt.Sprintf("%s/v1/rank?f=%s&d=%d&w=%s", ts.URL, f, d, freeWord(t, f, d))
				if code := getJSON(t, url, &resp); code != http.StatusOK {
					t.Fatalf("rank %s d=%d: status %d", f, d, code)
				}
				if resp.Source != string(core.SourceStore) {
					t.Fatalf("rank %s d=%d: source %q, want store", f, d, resp.Source)
				}
				requests++
			}
		}
	}

	var admin StoreStatsResponse
	if code := getJSON(t, ts.URL+"/v1/admin/store", &admin); code != http.StatusOK {
		t.Fatalf("admin/store: status %d", code)
	}
	if admin.Computed != 0 {
		t.Errorf("warm server rebuilt %d backends, want 0", admin.Computed)
	}
	if admin.Hits != uint64(requests) {
		t.Errorf("store hits %d, want %d (one per packed class request)", admin.Hits, requests)
	}
	if admin.Corrupt != 0 || admin.Misses != 0 {
		t.Errorf("warm sweep recorded corrupt=%d misses=%d", admin.Corrupt, admin.Misses)
	}
	if admin.WarmPack == nil || admin.WarmPack.MaxD != man.MaxD {
		t.Errorf("admin warmPack = %+v, want mounted manifest", admin.WarmPack)
	}

	// /stats carries the same store section.
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if st.Store == nil || st.Store.Hits != admin.Hits {
		t.Errorf("/stats store section = %+v, want hits %d", st.Store, admin.Hits)
	}
}

// The verdict sidecar preloads counts, classifications and isometry
// verdicts: requests for packed cells are cache hits attributed to the
// store, and their values agree with fresh computation.
func TestWarmPackVerdictCache(t *testing.T) {
	dir, man := testPack(t)
	s := mustNew(t, Config{Workers: 4, JobTimeout: time.Minute, WarmPack: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, cl := range core.Classes(man.MinLen, man.MaxLen) {
		rep := cl.Rep.String()
		for d := 1; d <= man.MaxD; d++ {
			var count CountResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/count?f=%s&d=%d", ts.URL, rep, d), &count); code != http.StatusOK {
				t.Fatalf("count %s d=%d: status %d", rep, d, code)
			}
			if !count.Cached || count.Source != string(core.SourceStore) {
				t.Errorf("count %s d=%d: cached=%v source=%q, want warm hit", rep, d, count.Cached, count.Source)
			}
			if bc := core.Count(d, cl.Rep); count.V != bc.V.String() {
				t.Errorf("count %s d=%d: V=%s, want %s", rep, d, count.V, bc.V)
			}
			var iso IsometricResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/isometric?f=%s&d=%d", ts.URL, rep, d), &iso); code != http.StatusOK {
				t.Fatalf("isometric %s d=%d: status %d", rep, d, code)
			}
			if !iso.Cached {
				t.Errorf("isometric %s d=%d missed the warm verdict cache", rep, d)
			}
			var cls ClassifyResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/classify?f=%s&d=%d", ts.URL, rep, d), &cls); code != http.StatusOK {
				t.Fatalf("classify %s d=%d: status %d", rep, d, code)
			}
			if !cls.Cached {
				t.Errorf("classify %s d=%d missed the warm verdict cache", rep, d)
			}
		}
	}
	// A non-canonical class member shares the count entry (class-invariant)
	// and still echoes its own factor.
	var count CountResponse
	if code := getJSON(t, ts.URL+"/v1/count?f=00&d=3", &count); code != http.StatusOK {
		t.Fatal("count for complement member failed")
	}
	if !count.Cached || count.Factor != "00" {
		t.Errorf("complement member: cached=%v factor=%q", count.Cached, count.Factor)
	}
}

// A warm-pack /v1/count answer must read exactly like a computed one
// once the per-request fields (elapsed, source, cached) are dropped —
// the backend label included — for every packed cell and a non-canonical
// class member.
func TestWarmCountMatchesCold(t *testing.T) {
	dir, man := testPack(t)
	warm := httptest.NewServer(mustNew(t, Config{Workers: 4, JobTimeout: time.Minute, WarmPack: dir}).Handler())
	defer warm.Close()
	cold, _ := newTestServer(t)

	stripped := func(url string) map[string]any {
		t.Helper()
		var body map[string]any
		if code := getJSON(t, url, &body); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		delete(body, "elapsed")
		delete(body, "source")
		delete(body, "cached")
		return body
	}
	var queries []string
	for _, cl := range core.Classes(man.MinLen, man.MaxLen) {
		for d := 1; d <= man.MaxD; d++ {
			queries = append(queries, fmt.Sprintf("/v1/count?f=%s&d=%d", cl.Rep, d))
		}
	}
	queries = append(queries, "/v1/count?f=00&d=3")
	for _, q := range queries {
		w, c := stripped(warm.URL+q), stripped(cold.URL+q)
		if !reflect.DeepEqual(w, c) {
			t.Errorf("%s: warm %v, cold %v", q, w, c)
		}
	}
}

// Source attribution on a store-less server: first resolution is
// computed, repeats come from the result cache.
func TestSourceFieldComputedThenCache(t *testing.T) {
	ts, _ := newTestServer(t)
	var first, second RankResponse
	url := ts.URL + "/v1/rank?f=11&d=10&w=0101010101"
	if code := getJSON(t, url, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Source != string(core.SourceComputed) {
		t.Errorf("first source %q, want computed", first.Source)
	}
	if code := getJSON(t, url, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.Cached || second.Source != string(core.SourceCache) {
		t.Errorf("second: cached=%v source=%q, want cache hit", second.Cached, second.Source)
	}
}

// Admin warm: computes-and-stores on the first pass, loads on the
// second; input validation fails closed.
func TestAdminWarmEndpoint(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, JobTimeout: time.Minute, StoreDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, WarmResponse, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/warm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var warm WarmResponse
		var apiErr ErrorResponse
		buf := new(bytes.Buffer)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			mustUnmarshal(t, buf.Bytes(), &warm)
		} else {
			mustUnmarshal(t, buf.Bytes(), &apiErr)
		}
		return resp.StatusCode, warm, apiErr
	}

	code, warm, _ := post(`{"factors":["11"],"minD":1,"maxD":4,"cubes":true}`)
	if code != http.StatusOK {
		t.Fatalf("warm: status %d", code)
	}
	if warm.Warmed != 8 || warm.Computed != 8 || warm.Store != 0 {
		t.Fatalf("cold warm pass: %+v, want 8 computed", warm)
	}
	code, warm, _ = post(`{"factors":["11"],"minD":1,"maxD":4,"cubes":true}`)
	if code != http.StatusOK || warm.Store != 8 || warm.Computed != 0 {
		t.Fatalf("second warm pass: status %d %+v, want 8 from store", code, warm)
	}

	for body, wantCode := range map[string]int{
		`{}`:                                   http.StatusBadRequest, // neither pack nor factors
		`{"pack":true}`:                        http.StatusNotFound,   // no pack mounted
		`not json`:                             http.StatusBadRequest,
		`{"factors":["2x"]}`:                   http.StatusBadRequest,
		`{"factors":[""]}`:                     http.StatusBadRequest,
		`{"factors":["11"],"minD":5,"maxD":2}`: http.StatusBadRequest,
	} {
		if code, _, apiErr := post(body); code != wantCode {
			t.Errorf("warm %q: status %d (%+v), want %d", body, code, apiErr, wantCode)
		}
	}
}

// The admin surface 404s with a stable error code when no store is
// configured, including under -store-disabled.
func TestAdminStoreDisabled(t *testing.T) {
	dir, _ := testPack(t)
	for name, cfg := range map[string]Config{
		"no store":       {Workers: 2, JobTimeout: time.Minute},
		"store disabled": {Workers: 2, JobTimeout: time.Minute, WarmPack: dir, StoreDisabled: true},
	} {
		ts := httptest.NewServer(mustNew(t, cfg).Handler())
		var e ErrorResponse
		if code := getJSON(t, ts.URL+"/v1/admin/store", &e); code != http.StatusNotFound {
			t.Errorf("%s: admin/store status %d, want 404", name, code)
		}
		if e.Error.Code != CodeNotFound {
			t.Errorf("%s: error code %q, want %q", name, e.Error.Code, CodeNotFound)
		}
		ts.Close()
	}
}

// A mounted pack that cannot be trusted is a startup error, not a
// silently degraded server.
func TestWarmPackStartupValidation(t *testing.T) {
	if _, err := New(Config{WarmPack: t.TempDir()}); err == nil {
		t.Error("pack directory without a manifest accepted at startup")
	}
	if _, err := New(Config{WarmPack: "/nonexistent/pack"}); err == nil {
		t.Error("missing pack directory accepted at startup")
	}
}

// Store counters surface in the Prometheus exposition.
func TestMetricsExposeStore(t *testing.T) {
	dir, _ := testPack(t)
	s := mustNew(t, Config{Workers: 2, JobTimeout: time.Minute, WarmPack: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/v1/rank?f=11&d=4&w=0101", nil); code != http.StatusOK {
		t.Fatalf("rank: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"gfc_store_hits_total 1",
		"gfc_store_misses_total 0",
		"gfc_store_corrupt_total 0",
		"gfc_store_computed_total 0",
		"gfc_store_pack_artifacts",
		"gfc_store_resident 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
