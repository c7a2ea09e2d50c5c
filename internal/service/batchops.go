package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/network"
)

// Batch executors for the coalesced endpoints. Each exec serves a whole
// lane dispatch — one (operation, f, d) class — under a single worker
// pool slot and a single backend resolution: the implicit DFA-rank view
// (or the counting DP) is fetched once, then every rider is answered in
// a tight loop. This is exactly the amortization the backends were built
// for: after one O(|f|·d) table resolution a rank probe is a handful of
// table walks, so the marginal cost of the 2nd..Nth concurrent request
// in a class is nanoseconds instead of a full trip through the
// singleflight/pool machinery.
//
// The per-item helpers (rankOne, countOne, ...) are shared with the solo
// compute path used when batching is disabled, so both paths return
// byte-identical responses.

// prerendered is a response pre-encoded by a batch exec: head holds the
// JSON through the "backend" field, and the handler appends the
// per-request cached/elapsed tail. Rendering inside the exec loop
// replaces the reflection-based encoder with straight byte appends for
// the hot addressed ops — a large slice of per-request CPU — while the
// typed response still lands in the result cache, so cache hits replay
// through the generic encoder. The byte format mirrors
// json.Encoder.SetIndent("", "  ") exactly (asserted by the
// batched-vs-solo equivalence test); all rendered fields are validated
// [01]+ words, decimal ranks, or fixed backend names, so no JSON
// escaping is ever needed.
type prerendered struct {
	head []byte
	resp any
}

// renderRankHead encodes a RankResponse through its "source" field.
func renderRankHead(r *RankResponse) []byte {
	b := make([]byte, 0, 160+len(r.Factor)+len(r.Word)+len(r.Rank)+len(r.Order))
	b = append(b, "{\n  \"factor\": \""...)
	b = append(b, r.Factor...)
	b = append(b, "\",\n  \"d\": "...)
	b = strconv.AppendInt(b, int64(r.D), 10)
	b = append(b, ",\n  \"word\": \""...)
	b = append(b, r.Word...)
	b = append(b, "\",\n  \"rank\": \""...)
	b = append(b, r.Rank...)
	b = append(b, "\",\n  \"order\": \""...)
	b = append(b, r.Order...)
	b = append(b, "\",\n  \"backend\": \""...)
	b = append(b, r.Backend...)
	b = append(b, "\",\n  \"source\": \""...)
	b = append(b, r.Source...)
	b = append(b, "\","...)
	return b
}

// renderUnrankHead encodes an UnrankResponse through its "source" field.
func renderUnrankHead(r *UnrankResponse) []byte {
	b := make([]byte, 0, 160+len(r.Factor)+len(r.Word)+len(r.Rank)+len(r.Order))
	b = append(b, "{\n  \"factor\": \""...)
	b = append(b, r.Factor...)
	b = append(b, "\",\n  \"d\": "...)
	b = strconv.AppendInt(b, int64(r.D), 10)
	b = append(b, ",\n  \"rank\": \""...)
	b = append(b, r.Rank...)
	b = append(b, "\",\n  \"word\": \""...)
	b = append(b, r.Word...)
	b = append(b, "\",\n  \"order\": \""...)
	b = append(b, r.Order...)
	b = append(b, "\",\n  \"backend\": \""...)
	b = append(b, r.Backend...)
	b = append(b, "\",\n  \"source\": \""...)
	b = append(b, r.Source...)
	b = append(b, "\","...)
	return b
}

// writePrerendered completes a pre-encoded response with the per-request
// cached/elapsed tail, byte-identical to the generic writeJSON output.
func writePrerendered(w http.ResponseWriter, p prerendered, elapsed string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := append(p.head, "\n  \"cached\": false,\n  \"elapsed\": \""...)
	buf = append(buf, elapsed...)
	buf = append(buf, "\"\n}\n"...)
	_, _ = w.Write(buf)
}

// Per-operation payloads riding in batches.
type rankReq struct {
	word bitstr.Word
	key  string
}

type unrankReq struct {
	rank int64
	key  string
}

type neighborsReq struct {
	word bitstr.Word
	key  string
}

type countReq struct {
	key string
}

type routeReq struct {
	src, dst bitstr.Word
	key      string
}

// batched serves one request through the micro-batching front: result
// cache fast path, then lane submission. With batching disabled it falls
// back to the solo cache/singleflight/pool path. It annotates the
// request's metrics sample with the cache/batch facts.
func (s *Server) batched(r *http.Request, op, laneKey, cacheKey string, req any, exec BatchExec, solo func(ctx context.Context) (any, error)) (any, bool, error) {
	sample := sampleFrom(r.Context())
	if s.batcher == nil {
		v, cached, err := s.compute(r.Context(), cacheKey, solo)
		if sample != nil {
			sample.CacheHit = cached
		}
		return v, cached, err
	}
	if v, ok := s.cache.Get(cacheKey); ok {
		if sample != nil {
			sample.CacheHit = true
		}
		return v, true, nil
	}
	v, fl, err := s.batcher.Submit(r.Context(), op, laneKey, req, exec)
	if sample != nil {
		sample.BatchSize = fl.BatchSize
		sample.QueueWait = fl.QueueWait
	}
	return v, false, err
}

// runBatch acquires one worker-pool slot for the whole batch, bounded by
// the same detached deadline as the solo compute path. A batch-level
// failure (saturated pool, backend resolution error) resolves every
// still-unresolved item with that error; per-item failures are the exec
// body's business.
func (s *Server) runBatch(items []*BatchItem, fn func(ctx context.Context) error) {
	ctx := context.Background()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*s.cfg.JobTimeout)
		defer cancel()
	}
	_, err := s.pool.Run(ctx, func(ctx context.Context) (any, error) {
		return nil, fn(ctx)
	})
	if err != nil {
		for _, it := range items {
			it.Resolve(nil, err)
		}
	}
}

// rankOne answers one /v1/rank query on a resolved view.
func rankOne(view *core.Implicit, f factorParam, d int, w bitstr.Word) (RankResponse, error) {
	rank, ok := view.RankWord(w)
	if !ok {
		return RankResponse{}, badRequest("w=%s is not a vertex of Q_%d(%s): it contains the factor", w, d, f.s)
	}
	return RankResponse{
		Factor: f.s, D: d, Word: w.String(),
		Rank: formatRank(rank), Order: formatRank(view.Order()),
		Backend: "implicit",
	}, nil
}

func (s *Server) rankExec(f factorParam, d int) BatchExec {
	return func(items []*BatchItem) {
		s.runBatch(items, func(ctx context.Context) error {
			view, src, err := s.implicitView(ctx, f, d)
			if err != nil {
				return err
			}
			for _, it := range items {
				if err := it.Ctx.Err(); err != nil {
					it.Resolve(nil, err)
					continue
				}
				rq := it.Req.(rankReq)
				resp, err := rankOne(view, f, d, rq.word)
				if err != nil {
					it.Resolve(nil, err)
					continue
				}
				resp.Source = string(src)
				s.cache.Put(rq.key, resp)
				it.Resolve(prerendered{head: renderRankHead(&resp), resp: resp}, nil)
			}
			return nil
		})
	}
}

// unrankOne answers one /v1/unrank query on a resolved view.
func unrankOne(view *core.Implicit, f factorParam, d int, rank int64) (UnrankResponse, error) {
	w, ok := view.UnrankWord(rank)
	if !ok {
		return UnrankResponse{}, badRequest("r=%d out of range [0, %d)", rank, view.Order())
	}
	return UnrankResponse{
		Factor: f.s, D: d, Rank: formatRank(rank),
		Word: w.String(), Order: formatRank(view.Order()),
		Backend: "implicit",
	}, nil
}

func (s *Server) unrankExec(f factorParam, d int) BatchExec {
	return func(items []*BatchItem) {
		s.runBatch(items, func(ctx context.Context) error {
			view, src, err := s.implicitView(ctx, f, d)
			if err != nil {
				return err
			}
			for _, it := range items {
				if err := it.Ctx.Err(); err != nil {
					it.Resolve(nil, err)
					continue
				}
				rq := it.Req.(unrankReq)
				resp, err := unrankOne(view, f, d, rq.rank)
				if err != nil {
					it.Resolve(nil, err)
					continue
				}
				resp.Source = string(src)
				s.cache.Put(rq.key, resp)
				it.Resolve(prerendered{head: renderUnrankHead(&resp), resp: resp}, nil)
			}
			return nil
		})
	}
}

// neighborsOne answers one /v1/neighbors query on a resolved view.
func neighborsOne(view *core.Implicit, f factorParam, d int, w bitstr.Word) (NeighborsResponse, error) {
	if !view.Contains(w) {
		return NeighborsResponse{}, badRequest("w=%s is not a vertex of Q_%d(%s): it contains the factor", w, d, f.s)
	}
	resp := NeighborsResponse{
		Factor: f.s, D: d, Word: w.String(),
		Order: formatRank(view.Order()), Backend: "implicit",
	}
	view.NeighborsOf(w, func(rank int64, u bitstr.Word) bool {
		resp.Neighbors = append(resp.Neighbors, Neighbor{Rank: formatRank(rank), Word: u.String()})
		return true
	})
	resp.Degree = len(resp.Neighbors)
	return resp, nil
}

func (s *Server) neighborsExec(f factorParam, d int) BatchExec {
	return func(items []*BatchItem) {
		s.runBatch(items, func(ctx context.Context) error {
			view, src, err := s.implicitView(ctx, f, d)
			if err != nil {
				return err
			}
			for _, it := range items {
				if err := it.Ctx.Err(); err != nil {
					it.Resolve(nil, err)
					continue
				}
				rq := it.Req.(neighborsReq)
				resp, err := neighborsOne(view, f, d, rq.word)
				if err != nil {
					it.Resolve(nil, err)
					continue
				}
				resp.Source = string(src)
				s.cache.Put(rq.key, resp)
				it.Resolve(resp, nil)
			}
			return nil
		})
	}
}

// countBackend labels a /v1/count answer at dimension d: "implicit+dp"
// when d fits the implicit DFA-rank backend, on which countOne cross-checks
// the DP's |V|, and "dp" beyond it. The label depends on d alone, and
// computed answers (countOne) and warm-pack answers (warmVerdicts) both
// take it from here, so one (f, d) reads the same on either path.
func countBackend(d int) string {
	if d <= bitstr.MaxLen {
		return "implicit+dp"
	}
	return "dp"
}

// countOne answers one /v1/count query. It computes on the canonical
// class representative — |V|, |E|, |S| are invariant under the
// complement/reversal symmetry (the maps are cube isomorphisms), so the
// whole class shares one DP run and one cache entry. The caller-facing
// Factor field is overwritten per request by the handler.
func (s *Server) countOne(ctx context.Context, f factorParam, d int) (CountResponse, error) {
	cf := f.canonical()
	bc, err := core.CountCtx(ctx, d, cf.w)
	if err != nil {
		return CountResponse{}, err
	}
	resp := CountResponse{
		Factor: cf.s, D: d,
		V: bc.V.String(), E: bc.E.String(), S: bc.S.String(),
		Backend: countBackend(d),
		// The DP always runs fresh — the count itself is never loaded from
		// disk, only warm-pack sidecar entries carry Source "store".
		Source: string(core.SourceComputed),
	}
	if d <= bitstr.MaxLen {
		view, _, err := s.implicitView(ctx, cf, d)
		if err != nil {
			return CountResponse{}, err
		}
		if got := strconv.FormatInt(view.Order(), 10); got != resp.V {
			return CountResponse{}, fmt.Errorf("count mismatch for Q_%d(%s): implicit |V| = %s, DP |V| = %s", d, cf.s, got, resp.V)
		}
	}
	return resp, nil
}

// countExec fuses a whole lane of count requests — by construction all
// for the same (canonical class, d) — into one DP run.
func (s *Server) countExec(f factorParam, d int, cacheKey string) BatchExec {
	return func(items []*BatchItem) {
		s.runBatch(items, func(ctx context.Context) error {
			resp, err := s.countOne(ctx, f, d)
			if err != nil {
				return err
			}
			s.cache.Put(cacheKey, resp)
			for _, it := range items {
				it.Resolve(resp, nil)
			}
			return nil
		})
	}
}

// wordRouteOne answers one word-router /v1/route query on a resolved
// router.
func wordRouteOne(rt *network.ViewRouter, f factorParam, d int, src, dst bitstr.Word) RouteResponse {
	resp := RouteResponse{
		Factor: f.s, D: d,
		Src: src.String(), Dst: dst.String(), Router: "word",
		Backend: "implicit",
	}
	hops, ok := rt.RouteWords(src, dst, 0)
	resp.Delivered = ok
	if ok {
		resp.Hops = len(hops) - 1
		if h := src.HammingDistance(dst); h > 0 {
			resp.Stretch = float64(resp.Hops) / float64(h)
		}
		for _, hp := range hops {
			resp.Path = append(resp.Path, hp.Word.String())
			resp.Ranks = append(resp.Ranks, formatRank(hp.Rank))
		}
	}
	return resp
}

func (s *Server) routeExec(f factorParam, d int) BatchExec {
	return func(items []*BatchItem) {
		s.runBatch(items, func(ctx context.Context) error {
			view, _, err := s.implicitView(ctx, f, d)
			if err != nil {
				return err
			}
			rt := network.NewViewRouter(view)
			for _, it := range items {
				if err := it.Ctx.Err(); err != nil {
					it.Resolve(nil, err)
					continue
				}
				rq := it.Req.(routeReq)
				resp := wordRouteOne(rt, f, d, rq.src, rq.dst)
				s.cache.Put(rq.key, resp)
				it.Resolve(resp, nil)
			}
			return nil
		})
	}
}
