package trace

import (
	"context"
	"testing"

	"xmlsec/internal/obs"
)

// The stage primitive on an untraced request that carries a cost card
// — every production request — allocates nothing: the timer is a
// value, the histogram is already looked up, the card is a plain array.
func TestStageOnUntracedCardedRequestAllocatesNothing(t *testing.T) {
	stages := NewStages()
	card := obs.GetCostCard()
	defer obs.PutCostCard(card)
	ctx := WithRequest(context.Background(), "r", card)
	allocs := testing.AllocsPerRun(1000, func() {
		label := stages.Begin(ctx, obs.StageLabel)
		stages.Begin(label.Context(ctx), obs.StageAuthIndexFill).End()
		label.End()
	})
	if allocs != 0 {
		t.Errorf("Begin/End allocated %v times per run, want 0", allocs)
	}
	if card.Stages[obs.StageLabel] <= 0 || card.Stages[obs.StageAuthIndexFill] <= 0 {
		t.Errorf("card stages not charged: %v", card.Stages)
	}
	var nilStages *Stages // an engine not built by NewEngine: card only
	nilStages.Begin(ctx, obs.StagePrune).End()
	if card.Stages[obs.StagePrune] <= 0 {
		t.Error("a nil stage set must still charge the card")
	}
}
