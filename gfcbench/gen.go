package main

import (
	"fmt"
	"math/rand"

	"gfcube/internal/bitstr"
)

// randomWord draws an f-free word of length d by greedy suffix avoidance:
// when the appended bit completes f, the opposite bit cannot (f's last
// character is fixed), so it is flipped. The generator never consults
// the automaton, so the avoidance tests can check it independently.
func randomWord(r *rand.Rand, f bitstr.Word, d int) bitstr.Word {
	n := f.Len()
	mask := uint64(1)<<uint(n) - 1
	var bits uint64
	for i := 0; i < d; i++ {
		bits = bits<<1 | uint64(r.Intn(2))
		if i+1 >= n && bits&mask == f.Bits {
			bits ^= 1
		}
	}
	return bitstr.Word{Bits: bits, N: d}
}

// request is one generated query. Op names the endpoint; W and W2 carry
// its words (rank/neighbors word, route src and dst, broadcast root) and
// R the rank of an unrank query.
type request struct {
	Op   string
	F    bitstr.Word
	D    int
	W    bitstr.Word
	W2   bitstr.Word
	R    uint64
	Path string // URL path and query
}

// addressingClasses are the (f, d) classes the addressing workload
// spreads over: short and long factors, d from 32 to 62, all on the
// implicit DFA-rank backend (no cube is ever built).
var addressingClasses = []struct {
	F string
	D int
}{{"11", 32}, {"101", 48}, {"1101", 62}, {"110011", 40}}

// addressingMix is gfc-loadgen's "mixed" profile.
var addressingMix = []struct {
	Op     string
	Weight int
}{{"rank", 40}, {"unrank", 25}, {"neighbors", 15}, {"count", 15}, {"route", 5}}

// addressingRound generates round k of the addressing workload: n
// requests drawn from the mixed profile over addressingClasses. orders
// holds |V(Q_d(f))| per class so unrank ranks are uniform in range.
// Each round draws fresh words, so the result cache cannot serve a
// replayed round.
func addressingRound(seed int64, k, n int, orders []uint64) []request {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	total := 0
	for _, m := range addressingMix {
		total += m.Weight
	}
	out := make([]request, n)
	for i := range out {
		ci := r.Intn(len(addressingClasses))
		cl := addressingClasses[ci]
		f := bitstr.MustParse(cl.F)
		pick := r.Intn(total)
		op := addressingMix[len(addressingMix)-1].Op
		for _, m := range addressingMix {
			if pick < m.Weight {
				op = m.Op
				break
			}
			pick -= m.Weight
		}
		q := request{Op: op, F: f, D: cl.D}
		base := fmt.Sprintf("/v1/%s?f=%s&d=%d", op, cl.F, cl.D)
		switch op {
		case "rank", "neighbors":
			q.W = randomWord(r, f, cl.D)
			q.Path = base + "&w=" + q.W.String()
		case "unrank":
			q.R = uint64(r.Int63n(int64(orders[ci])))
			q.Path = fmt.Sprintf("%s&r=%d", base, q.R)
		case "route":
			q.W, q.W2 = randomWord(r, f, cl.D), randomWord(r, f, cl.D)
			q.Path = base + "&router=word&src=" + q.W.String() + "&dst=" + q.W2.String()
		default:
			q.Path = base
		}
		out[i] = q
	}
	return out
}

// warmCells are every (factor word, d) pair of the shipped warm pack:
// each word of length 1..5 (not only class representatives, so every
// request resolves its own artifacts) at d = 1..12, 744 in all.
func warmCells() []request {
	var cells []request
	for n := 1; n <= 5; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			for d := 1; d <= 12; d++ {
				cells = append(cells, request{F: bitstr.Word{Bits: bits, N: n}, D: d})
			}
		}
	}
	return cells
}

// warmOps are the warm-restart request kinds, in equal shares.
var warmOps = []string{"count", "rank", "route", "broadcast"}

// warmTrace generates the warm-restart trace: n requests, equal shares
// of warmOps, cells Zipf-distributed (s ≈ 1) over one fixed shuffle of
// warmCells. The popularity order is the same for every seed, so a
// seed's cost differs from another's only by sampling; the seed draws
// the cells and every word.
func warmTrace(seed int64, n int) []request {
	cells := warmCells()
	rand.New(rand.NewSource(1)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.01, 1, uint64(len(cells)-1))
	out := make([]request, n)
	for i := range out {
		c := cells[z.Uint64()]
		q := request{Op: warmOps[i%len(warmOps)], F: c.F, D: c.D}
		fs := c.F.String()
		switch q.Op {
		case "count":
			q.Path = fmt.Sprintf("/v1/count?f=%s&d=%d", fs, c.D)
		case "rank":
			q.W = randomWord(r, c.F, c.D)
			q.Path = fmt.Sprintf("/v1/rank?f=%s&d=%d&w=%s", fs, c.D, q.W)
		case "route":
			q.W, q.W2 = randomWord(r, c.F, c.D), randomWord(r, c.F, c.D)
			q.Path = fmt.Sprintf("/v1/route?f=%s&d=%d&router=greedy&src=%s&dst=%s", fs, c.D, q.W, q.W2)
		case "broadcast":
			q.W = randomWord(r, c.F, c.D)
			q.Path = fmt.Sprintf("/v1/broadcast?f=%s&d=%d&root=%s", fs, c.D, q.W)
		}
		out[i] = q
	}
	return out
}
