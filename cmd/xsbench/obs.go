package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/server"
	"xmlsec/internal/trace"
)

// E17 — the per-request instrumentation overhead. The contract:
// carrying the cost card costs no allocations beyond the seed serve
// path (the card is pooled and rides in the context value the request
// ID already occupied) and ≤2% added latency; tracing at the default
// 1-in-trace.DefaultSampleEvery rate stays in the noise. Both scenarios
// that matter are measured: the fully on-line cycle (every stage and
// counter runs; the worst per-request span count) and the cached serve
// path (the microsecond-scale hot path). The baseline is what the seed
// middleware did — thread a request ID through the context. The traced
// rows carry the card too, as every production request does.

// obsBenchResult is one measured scenario+mode, and the record format
// of BENCH_obs.json.
type obsBenchResult struct {
	Scenario    string  `json:"scenario"` // "online", "cached"
	Mode        string  `json:"mode"`     // "no-card", "card", "card+trace"
	SampleEvery int     `json:"sample_every,omitempty"`
	NsPerOp     float64 `json:"ns_op"`
	BytesOp     int64   `json:"bytes_op"`
	AllocsOp    int64   `json:"allocs_op"`
	OverheadPct float64 `json:"overhead_pct"` // vs the scenario's no-card row
}

func expObs() error {
	type prepared struct {
		scenario    string
		card        bool
		sampleEvery int // 0 = tracing disabled
		site        *server.Site
		rec         *trace.Recorder
		minBatch    time.Duration
	}
	var runs []*prepared
	for _, m := range []prepared{
		{scenario: "online"}, {scenario: "online", card: true},
		{scenario: "cached"}, {scenario: "cached", card: true},
		{scenario: "online", card: true, sampleEvery: trace.DefaultSampleEvery},
		{scenario: "online", card: true, sampleEvery: 1},
	} {
		p := m
		site, err := mkLabSite()
		if err != nil {
			return err
		}
		switch p.scenario {
		case "online":
			site.ParsePerRequest = true
			site.ValidateViews = true
		case "cached":
			site.EnableViewCache(64)
		}
		if p.sampleEvery > 0 {
			site.EnableTracing(trace.Options{
				Capacity:      64,
				SampleEvery:   p.sampleEvery,
				SlowThreshold: -1, // isolate span cost from slow capture
			})
			p.rec = site.TraceRecorder()
		}
		p.site = site
		runs = append(runs, &p)
	}

	// request is the middleware's per-request work, minus the HTTP
	// stack: the no-card mode threads the request ID the way the seed
	// did; the card mode additionally checks a card out of the pool,
	// folds it into the same context value, and returns it — the full
	// accounting cycle a production request pays; the traced modes
	// also start, fill and finish a trace when the sampler picks one.
	request := func(p *prepared) error {
		ctx := context.Background()
		if !p.card {
			ctx = trace.WithRequest(ctx, "bench", nil)
			_, err := p.site.ProcessContext(ctx, labexample.Tom, labexample.DocURI)
			return err
		}
		tr := p.rec.Start("GET /docs/") // nil recorder or unsampled → nil
		if tr != nil {
			ctx = trace.NewContext(ctx, tr.Root())
		}
		c := obs.GetCostCard()
		ctx = trace.WithRequest(ctx, "bench", c)
		_, err := p.site.ProcessContext(ctx, labexample.Tom, labexample.DocURI)
		tr.SetCost(*c)
		tr.Finish()
		obs.PutCostCard(c)
		return err
	}

	// The effect is smaller than shared-host load drift over a
	// one-second run, so instead of testing.Benchmark the modes run in
	// tightly interleaved fixed batches — every mode is sampled within
	// milliseconds of the others — and the fastest batch per mode is
	// kept, discarding the rounds a noisy neighbour disturbed.
	const batchOps = 100
	batches := 80
	if quick {
		batches = 20
	}
	for _, p := range runs { // warm caches, indexes, and the card pool
		if err := request(p); err != nil {
			return err
		}
	}
	for b := 0; b < batches; b++ {
		for _, p := range runs {
			start := time.Now()
			for i := 0; i < batchOps; i++ {
				if err := request(p); err != nil {
					return err
				}
			}
			if el := time.Since(start); p.minBatch == 0 || el < p.minBatch {
				p.minBatch = el
			}
		}
	}

	var results []obsBenchResult
	base := map[string]float64{}
	fmt.Printf("%-10s %-16s %-12s %-12s %-12s %-10s\n", "scenario", "mode", "ns/op", "bytes/op", "allocs/op", "overhead")
	for _, p := range runs {
		const allocOps = 512
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < allocOps; i++ {
			if err := request(p); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)

		mode, label := "no-card", "no-card"
		if p.sampleEvery > 0 {
			mode, label = "card+trace", fmt.Sprintf("card+trace 1/%d", p.sampleEvery)
		} else if p.card {
			mode, label = "card", "card"
		}
		r := obsBenchResult{
			Scenario:    p.scenario,
			Mode:        mode,
			SampleEvery: p.sampleEvery,
			NsPerOp:     float64(p.minBatch.Nanoseconds()) / batchOps,
			BytesOp:     int64((after.TotalAlloc - before.TotalAlloc) / allocOps),
			AllocsOp:    int64((after.Mallocs - before.Mallocs) / allocOps),
		}
		overhead := "-"
		if !p.card {
			base[p.scenario] = r.NsPerOp
		} else if b := base[p.scenario]; b > 0 {
			r.OverheadPct = (r.NsPerOp - b) / b * 100
			overhead = fmt.Sprintf("%+.2f%%", r.OverheadPct)
		}
		results = append(results, r)
		fmt.Printf("%-10s %-16s %-12.0f %-12d %-12d %-10s\n",
			r.Scenario, label, r.NsPerOp, r.BytesOp, r.AllocsOp, overhead)
	}
	fmt.Println("(no-card = the seed serve path, request ID threaded through the context;")
	fmt.Println(" card = pooled cost card folded into the same context value, every counter")
	fmt.Println(" and stage time live; card+trace 1/N = card plus tracing sampling 1 in N;")
	fmt.Println(" online = fully on-line cycle, cached = class-keyed view-cache hit)")

	if jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}
