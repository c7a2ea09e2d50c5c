package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/store"
)

// Admin surface for the artifact store: GET /v1/admin/store snapshots the
// inventory and counters, POST /v1/admin/warm preloads backends so the
// first real request after a restart never pays a build.

// handleAdminStore serves the artifact-store snapshot.
func (s *Server) handleAdminStore(w http.ResponseWriter, r *http.Request) error {
	if s.store == nil {
		return notFound("artifact store disabled (start with -store-dir or -warm-pack)")
	}
	writeJSON(w, http.StatusOK, StoreStatsResponse{
		Stats:    s.store.Stats(),
		Computed: s.provider.Computed(),
		WarmPack: s.pack,
	})
	return nil
}

// handleAdminWarm resolves a list of (f, d) backends through the store
// provider: every artifact touched becomes resident in the store's
// mapping cache, so later requests load it without re-reading or
// re-verifying. Warming bypasses the bounded view LRU on purpose — a
// whole pack would thrash it — and runs under one worker-pool slot with
// the standard job deadline, so it cannot starve live traffic.
func (s *Server) handleAdminWarm(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	if s.store == nil {
		return notFound("artifact store disabled (start with -store-dir or -warm-pack)")
	}
	var req WarmRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		return badRequest("invalid warm request body: %v", err)
	}
	if !req.Pack && len(req.Factors) == 0 {
		return badRequest("warm request must set pack:true or list factors")
	}

	type target struct {
		f bitstr.Word
		d int
	}
	var targets []target
	if req.Pack {
		if s.pack == nil {
			return notFound("no warm pack mounted (start with -warm-pack)")
		}
		for n := s.pack.MinLen; n <= s.pack.MaxLen; n++ {
			for bits := uint64(0); bits < 1<<uint(n); bits++ {
				for d := 1; d <= s.pack.MaxD; d++ {
					targets = append(targets, target{f: bitstr.Word{Bits: bits, N: n}, d: d})
				}
			}
		}
	}
	if len(req.Factors) > 0 {
		minD, maxD := req.MinD, req.MaxD
		if minD < 1 {
			minD = 1
		}
		if maxD <= 0 {
			maxD = 12
		}
		if maxD > bitstr.MaxLen {
			maxD = bitstr.MaxLen
		}
		if maxD < minD {
			return badRequest("maxD=%d below minD=%d", maxD, minD)
		}
		for _, raw := range req.Factors {
			if len(raw) > s.cfg.MaxFactorLen {
				return badRequest("factor longer than %d bits", s.cfg.MaxFactorLen)
			}
			fw, err := bitstr.Parse(raw)
			if err != nil {
				return badRequest("invalid factor %q: %v", raw, err)
			}
			if fw.Len() == 0 {
				return badRequest("factor must be nonempty")
			}
			for d := minD; d <= maxD; d++ {
				targets = append(targets, target{f: fw, d: d})
			}
		}
	}

	// One pool slot for the whole warm run, same detached deadline as any
	// other job: a warm cannot outlive 2x the job timeout and queues
	// behind live work like everything else.
	ctx := context.WithoutCancel(r.Context())
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*s.cfg.JobTimeout)
		defer cancel()
	}
	v, err := s.pool.Run(ctx, func(ctx context.Context) (any, error) {
		var resp WarmResponse
		tally := func(src core.Source) {
			resp.Warmed++
			if src == core.SourceStore {
				resp.Store++
			} else {
				resp.Computed++
			}
		}
		for _, t := range targets {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("warm aborted after %d/%d backends: %w", resp.Warmed, len(targets), err)
			}
			_, src, err := s.provider.Implicit(ctx, t.d, t.f)
			if err != nil {
				return nil, err
			}
			tally(src)
			if req.Cubes && t.d <= s.cfg.MaxBuildDim {
				_, src, err := s.provider.Cube(ctx, t.d, t.f)
				if err != nil {
					return nil, err
				}
				tally(src)
			}
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(WarmResponse)
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// warmVerdicts preloads the warm pack's precomputed verdict sidecar into
// the result cache at startup: counts, classifications and exact
// isometry verdicts for every canonical class cell of the pack grid.
// Entries are keyed exactly like the live handlers' cache keys, so a
// request for a canonical representative is served from the pack without
// touching a backend; responses carry Source "store" (preserved across
// cache hits by cacheSource). Requests for non-canonical class members
// resolve through the store's artifacts instead.
func (s *Server) warmVerdicts(verdicts []store.Verdict) {
	for _, v := range verdicts {
		fw, err := bitstr.Parse(v.Factor)
		if err != nil {
			continue // a sidecar row the reader cannot key; skip, never guess
		}
		count := CountResponse{
			Factor: v.Factor, D: v.D,
			V: v.V, E: v.E, S: v.S,
			Backend: countBackend(v.D),
			Source:  string(core.SourceStore),
		}
		s.cache.Put(fmt.Sprintf("count|%s|%d", v.Factor, v.D), count)
		classify := ClassifyResponse{
			Factor: v.Factor, D: v.D,
			Verdict: v.Verdict, Reason: v.Reason,
		}
		if row, ok := core.Table1Lookup(fw); ok {
			classify.Table1 = &Table1Info{
				Representative: row.Factor,
				UpTo:           row.UpTo,
				Citation:       row.Citation,
			}
		}
		s.cache.Put(fmt.Sprintf("classify|%s|%d", v.Factor, v.D), classify)
		iso := IsometricResponse{
			Factor: v.Factor, D: v.D, Isometric: v.Isometric,
			U: v.WitnessU, V: v.WitnessV,
			CubeDist: v.CubeDist, HammingDist: v.HammingDist,
		}
		s.cache.Put(fmt.Sprintf("iso|%s|%d", v.Factor, v.D), iso)
	}
}
