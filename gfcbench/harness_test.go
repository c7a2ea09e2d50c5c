package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/sweep"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the helper must sort
		}
		return xs
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {109, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{0, 0.5, false}, {100, 1, false},
	}
	for _, c := range cases {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if p, err := percentile(seq(100), 0.5); err != nil || p != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", p, err)
	}
	if p, err := percentile(seq(100), 0.9); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
}

func TestGeneratedWordsAvoidFactor(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 1; n <= 6; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			f := bitstr.Word{Bits: bits, N: n}
			dfa := automaton.New(f)
			for d := 1; d <= 24; d++ {
				for i := 0; i < 8; i++ {
					if w := randomWord(r, f, d); w.Len() != d || !dfa.Avoids(w) {
						t.Fatalf("randomWord(f=%s, d=%d) = %s contains the factor", f, d, w)
					}
				}
			}
		}
	}
	check := func(q request) {
		dfa := automaton.New(q.F)
		for _, w := range []bitstr.Word{q.W, q.W2} {
			if w.Len() != 0 && (w.Len() != q.D || !dfa.Avoids(w)) {
				t.Fatalf("%s: word %s is not a vertex of Q_%d(%s)", q.Path, w, q.D, q.F)
			}
		}
	}
	for _, q := range addressingRound(3, 0, 4096, addressingOrders()) {
		check(q)
	}
	for _, q := range warmTrace(3, 4096) {
		check(q)
	}
}

func TestTracesDeterministic(t *testing.T) {
	orders := addressingOrders()
	if a, b := addressingRound(5, 2, 512, orders), addressingRound(5, 2, 512, orders); !reflect.DeepEqual(a, b) {
		t.Error("addressing rounds differ for the same seed")
	}
	if a, b := addressingRound(5, 2, 512, orders), addressingRound(6, 2, 512, orders); reflect.DeepEqual(a, b) {
		t.Error("addressing rounds equal for different seeds")
	}
	if a, b := addressingRound(5, 2, 512, orders), addressingRound(5, 3, 512, orders); reflect.DeepEqual(a, b) {
		t.Error("consecutive addressing rounds repeat their requests")
	}
	if a, b := warmTrace(5, 2000), warmTrace(5, 2000); !reflect.DeepEqual(a, b) {
		t.Error("warm traces differ for the same seed")
	}
	if a, b := warmTrace(5, 2000), warmTrace(6, 2000); reflect.DeepEqual(a, b) {
		t.Error("warm traces equal for different seeds")
	}
	if n := len(warmCells()); n != 744 {
		t.Errorf("warm grid has %d cells, want 744", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "check", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "check", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Name: "cell", Start: 200, End: 260},
		{ID: 6, Parent: 5, Name: "build", Start: 210, End: 220},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"cell": 50 + 50, "build": 20 + 10, "check": 30 + 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	outer := tr.Begin("outer", 0, "r1")
	inner := tr.Begin("inner", outer, "r1")
	tr.End(inner)
	tr.End(outer)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("nested spans recorded as %+v", s)
	}
	var off *Tracer
	off.End(off.Begin("x", 0, ""))
	if off.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
}

// TestChecksFlagWrongAnswers feeds the output checks the reference
// answers and then a corrupted copy: only the latter may fail.
func TestChecksFlagWrongAnswers(t *testing.T) {
	var ref []surveyRow
	if err := json.Unmarshal(censusRef, &ref); err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.SurveyRow, len(ref))
	for i, r := range ref {
		rows[i] = sweep.SurveyRow{Class: core.ClassOf(bitstr.MustParse(r.Factor)), FirstFail: r.FirstFail, Theory: r.Theory}
	}
	var ok repResult
	checkCensus(&ok, rows)
	if ok.Failed != 0 {
		t.Fatalf("reference rows fail the census check: %v", ok.Errors)
	}
	rows[3].FirstFail++
	var bad repResult
	checkCensus(&bad, rows)
	if bad.Failed == 0 {
		t.Error("a wrong first failure passed the census check")
	}

	body := []byte(`{"factor":"11","d":3,"v":"5","backend":"dp","source":"store","cached":true,"elapsed":"1µs"}`)
	computed := []byte(`{"factor":"11","d":3,"v":"5","backend":"implicit+dp","source":"computed","cached":false,"elapsed":"9µs"}`)
	a, errA := normalize("count", body)
	b, errB := normalize("count", computed)
	if errA != nil || errB != nil || a != b {
		t.Errorf("normalize: %q vs %q (%v, %v)", a, b, errA, errB)
	}
	wrong, _ := normalize("count", []byte(`{"factor":"11","d":3,"v":"6","backend":"dp"}`))
	if wrong == b {
		t.Error("normalize hid a wrong count")
	}
}

func addressingOrders() []uint64 {
	var out []uint64
	for _, cr := range newClassRankers() {
		out = append(out, cr.rk.TotalU64())
	}
	return out
}
