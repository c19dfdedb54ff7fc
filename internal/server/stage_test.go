package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/wal"
)

// stageCounts reads how often each stage has been observed from the
// site's registry.
func stageCounts(t *testing.T, site *Site) [obs.NumStages]uint64 {
	t.Helper()
	fam := site.Metrics().Snapshot().Metric("xmlsec_stage_duration_seconds")
	var out [obs.NumStages]uint64
	for id := obs.Stage(0); id < obs.NumStages; id++ {
		s := fam.Find("stage", id.String())
		if s == nil || s.Histogram == nil {
			t.Fatalf("stage %s not listed in xmlsec_stage_duration_seconds", id)
		}
		out[id] = s.Histogram.Count
	}
	return out
}

// Every request, sampled or not, carries its own per-stage times: a
// cold read and an update script sent through the handler show a
// nonzero stages_ns entry for exactly the stages that ran for them, in
// /debug/slowz and in the audit record alike, and the entries (self
// time) add up to no more than the request's duration.
func TestEveryRequestCarriesItsStageTimes(t *testing.T) {
	site, _ := writerSite(t)
	if err := site.EnableDurability(t.TempDir(), DurabilityOptions{Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer site.CloseDurability()
	var audit bytes.Buffer
	site.SetAuditLog(&audit)
	site.EnableViewCache(16).EnableSlowLog(0, 32)
	h := site.Handler()

	for _, tc := range []struct {
		name, method, path, user, ip, body string
		want                               []obs.Stage
	}{
		{"cold read", http.MethodGet, "/docs/" + labexample.DocURI, "Tom", "130.100.50.8", "",
			[]obs.Stage{obs.StageClassResolve, obs.StageLabel, obs.StagePrune, obs.StageValidate, obs.StageUnparse}},
		{"update script", http.MethodPost, "/docs/" + labexample.DocURI + "/update", "Sam", "130.89.56.8",
			"replace-text //title Staged Title",
			[]obs.Stage{obs.StageLabel, obs.StagePrune, obs.StageWriteLabel, obs.StageUpdateResolve,
				obs.StageUpdateApply, obs.StageDocSerialize, obs.StageDocPrepare, obs.StageWALAppend}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := stageCounts(t, site)
			audit.Reset()
			rec := do(t, h, tc.method, tc.path, tc.user, tc.ip, tc.body)
			if rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
			}
			after := stageCounts(t, site)
			id := rec.Header().Get("X-Request-ID")

			var slowz slowzResponse
			if err := json.Unmarshal(do(t, h, http.MethodGet, "/debug/slowz", "", "127.0.0.1", "").Body.Bytes(), &slowz); err != nil {
				t.Fatal(err)
			}
			var entry *SlowEntry
			for i := range slowz.Entries {
				if slowz.Entries[i].RequestID == id {
					entry = &slowz.Entries[i]
				}
			}
			if entry == nil {
				t.Fatalf("request %s not in /debug/slowz", id)
			}
			var ar AuditRecord
			if err := json.Unmarshal(audit.Bytes(), &ar); err != nil {
				t.Fatalf("audit record: %v (%q)", err, audit.String())
			}
			if ar.RequestID != id || ar.Cost == nil || ar.Cost.Stages != entry.Cost.Stages {
				t.Fatalf("audit stages %+v differ from slowz stages %v", ar.Cost, entry.Cost.Stages)
			}

			card := entry.Cost
			for _, st := range tc.want {
				if after[st] == before[st] {
					t.Errorf("stage %s did not run", st)
				}
			}
			var sum int64
			for id := obs.Stage(0); id < obs.NumStages; id++ {
				ns := card.Stages[id]
				sum += ns
				ran := after[id] > before[id]
				if id == obs.StageAuthIndexFill {
					// Fills of the write's pre-warm run with no request
					// card; the request owns only the fills it ran.
					ran = card.AuthIndexFills > 0
				}
				if ran != (ns > 0) {
					t.Errorf("stage %s: ran=%v but stages_ns=%d", id, ran, ns)
				}
			}
			if sum > entry.DurationNs {
				t.Errorf("stage times sum to %d ns, more than the request's %d ns: %v", sum, entry.DurationNs, card.Stages)
			}
			if tc.method == http.MethodPost && card.WALFsyncWaitNs != card.Stages[obs.StageWALAppend] {
				t.Errorf("WALFsyncWaitNs %d != wal.append stage %d", card.WALFsyncWaitNs, card.Stages[obs.StageWALAppend])
			}
		})
	}
}

// Every node-set index fill is one authindex.fill observation, warm
// fills included: after a write's pre-warm the stage series count
// equals xmlsec_authindex_fills_total.
func TestAuthIndexFillStageCountsEveryFill(t *testing.T) {
	site, sam := writerSite(t)
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI, "replace-text //title Warm Title"); err != nil {
		t.Fatal(err)
	}
	snap := site.Metrics().Snapshot()
	fills := snap.Metric("xmlsec_authindex_fills_total").Series[0].Value
	got := snap.Metric("xmlsec_stage_duration_seconds").Find("stage", "authindex.fill").Histogram.Count
	if fills == 0 || float64(got) != fills {
		t.Fatalf("authindex.fill observed %d times, xmlsec_authindex_fills_total = %v", got, fills)
	}
}

// The stage primitive adds no allocation to the read path: a view-cache
// hit allocates nothing and a cache miss (two alternating classes over
// a one-entry cache) keeps the allocation count it had before stages
// existed.
func TestProcessContextAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race (sync.Pool drops items)")
	}
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	card := obs.GetCostCard()
	defer obs.PutCostCard(card)
	ctx := trace.WithRequest(context.Background(), "allocs", card)
	hit := labSite(t).EnableViewCache(16)
	miss := labSite(t).EnableViewCache(1)
	hit.ValidateViews, miss.ValidateViews = false, false
	process := func(site *Site, rq subjects.Requester) {
		card.Reset()
		if _, err := site.ProcessContext(ctx, rq, labexample.DocURI); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the index, the class memo, the pools
		process(hit, labexample.Tom)
		process(miss, labexample.Tom)
		process(miss, sam)
	}
	if got := testing.AllocsPerRun(200, func() { process(hit, labexample.Tom) }); got != 0 {
		t.Errorf("cache hit: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { process(miss, labexample.Tom); process(miss, sam) }); got != 97 {
		t.Errorf("two cache misses: %v allocs/op, want 97", got)
	}
	if hits, _ := miss.CacheStats(); hits != 0 {
		t.Fatalf("the miss site hit its cache %d times", hits)
	}
}

// Readers that snapshotted a document before a script write replaced
// it must not pin the superseded generation in the node-set index:
// once readers and writers stop, the index holds live documents only.
// Meant for -race -count=10.
func TestAuthIndexHoldsOnlyLiveDocuments(t *testing.T) {
	site, sam := writerSite(t)
	site.ValidateViews = false
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(rq subjects.Requester) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := site.Process(rq, labexample.DocURI); err != nil {
					t.Error(err)
					return
				}
			}
		}([]subjects.Requester{labexample.Tom, sam}[r%2])
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				script := fmt.Sprintf("replace-text //title T%d-%d", w, i)
				if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI, script); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	live := site.Docs.Doc(labexample.DocURI).Doc
	for _, d := range site.Engine.AuthIndex().Inspect() {
		if d.Doc != live {
			t.Errorf("index holds a superseded document (%d sets, gen %d)", d.Sets, d.Gen)
		}
	}
}
