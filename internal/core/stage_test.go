package core_test

import (
	"context"
	"testing"

	"xmlsec/internal/core"
	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
	"xmlsec/internal/workload"
)

// A document the server replaced is retired by InvalidateDoc: a reader
// that still holds it labels it correctly, but evaluates uncached and
// cannot put it back into the index, where it would pin a superseded
// generation until eviction.
func TestAuthIndexRetiredDocumentIsNotReindexed(t *testing.T) {
	doc, _ := labexample.Parse()
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	idx := eng.AuthIndex()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}

	before, err := eng.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	if st := idx.Stats(); st.Documents != 1 {
		t.Fatalf("first labeling indexed %d documents, want 1", st.Documents)
	}
	idx.InvalidateDoc(doc) // the commit that superseded doc
	fills := idx.Stats().Fills
	after, err := eng.ComputeView(req, doc) // a reader that snapshotted doc earlier
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Documents != 0 || st.Entries != 0 {
		t.Fatalf("retired document re-entered the index: %+v", st)
	}
	if st.Fills == fills {
		t.Fatal("relabeling a retired document evaluated nothing; want uncached fills")
	}
	if got, want := after.XMLIndent("  "), before.XMLIndent("  "); got != want {
		t.Fatalf("view of the retired document changed:\nbefore:\n%s\nafter:\n%s", want, got)
	}
	for i := 0; i < doc.Arena().Len(); i++ {
		if a, b := after.Labeling.FinalAt(i), before.Labeling.FinalAt(i); a != b {
			t.Fatalf("node %d labeled %v after retirement, %v before", i, a, b)
		}
	}
}

// Warm-up workers run with no request: their fills reach the engine's
// authindex.fill histogram but never a request's cost card, even when
// the warm-up is triggered while a request's card is live.
func TestWarmFillsTimeStagesButNoCard(t *testing.T) {
	doc, store, dir, cfg := mkWorkload(t, 9)
	eng := core.NewEngine(dir, store)
	card := obs.GetCostCard()
	defer obs.PutCostCard(card)
	ctx := trace.WithRequest(context.Background(), "warm", card)
	req := core.Request{Requester: workload.GenRequester(cfg.Pop, 1), URI: cfg.URI, DTDURI: cfg.DTDURI}

	eng.WarmAuthIndex(doc, cfg.URI, cfg.DTDURI, 4)
	if _, err := eng.ComputeViewCtx(ctx, req, doc); err != nil {
		t.Fatal(err)
	}
	st := eng.AuthIndex().Stats()
	if st.Fills == 0 {
		t.Fatal("warm-up filled nothing")
	}
	if card.AuthIndexFills != 0 || card.Stages[obs.StageAuthIndexFill] != 0 {
		t.Fatalf("warm fills charged the request card: %d fills, %d ns", card.AuthIndexFills, card.Stages[obs.StageAuthIndexFill])
	}
	if card.Stages[obs.StageLabel] <= 0 || card.Stages[obs.StagePrune] <= 0 {
		t.Fatalf("request stages missing from its card: %v", card.Stages)
	}
	reg := obs.NewRegistry()
	reg.RegisterStageHistograms("stage_seconds", "", eng.Stages().Histograms())
	if h := reg.Snapshot().Metric("stage_seconds").Find("stage", "authindex.fill").Histogram; h.Count != st.Fills {
		t.Fatalf("authindex.fill observed %d times, index filled %d", h.Count, st.Fills)
	}
}
