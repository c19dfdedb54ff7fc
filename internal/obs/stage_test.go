package obs

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The card keeps self time: a stage nested in another is charged to
// itself and taken off its container, so the entries sum to the
// outermost stage's wall time.
func TestCardStagesAreSelfTime(t *testing.T) {
	var c CostCard
	outer := c.EnterStage(StageLabel)
	inner := c.EnterStage(StageAuthIndexFill)
	c.LeaveStage(StageAuthIndexFill, inner, 30)
	c.LeaveStage(StageLabel, outer, 100)
	if c.Stages[StageLabel] != 70 || c.Stages[StageAuthIndexFill] != 30 {
		t.Fatalf("stages = %v, want label 70 and fill 30", c.Stages)
	}
	c.LeaveStage(StagePrune, c.EnterStage(StagePrune), 5)
	if c.Stages[StagePrune] != 5 || c.Stages[StageLabel] != 70 {
		t.Fatalf("a top-level stage touched another: %v", c.Stages)
	}
}

func TestStageTimesJSONRoundTrip(t *testing.T) {
	var st StageTimes
	st[StageClassResolve] = 12
	st[StageWALAppend] = 34
	b, err := json.Marshal(CostCard{Class: 3, Stages: st})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stages_ns":{"class.resolve":12,"wal.append":34}`) {
		t.Fatalf("card JSON %s lacks the named stage object", b)
	}
	var back CostCard
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stages != st {
		t.Fatalf("round trip gave %v, want %v", back.Stages, st)
	}
	if b, _ := json.Marshal(CostCard{}); strings.Contains(string(b), "stages_ns") {
		t.Fatalf("a card with no stage time still renders stages_ns: %s", b)
	}
}

// One vocabulary: every stage in the table is documented in the stage
// table of docs/METRICS.md, which operators read to interpret
// xmlsec_stage_duration_seconds, stages_ns and span names.
func TestStageNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for id := Stage(0); id < NumStages; id++ {
		if !strings.Contains(string(doc), "| `"+id.String()+"` |") {
			t.Errorf("stage %q missing from docs/METRICS.md's stage table", id)
		}
	}
}
