package obs

import (
	"encoding/json"
	"log/slog"
	"time"
)

// Stage names one timed layer of the security processor: the paper's
// execution cycle first, then the read path's other layers, then the
// write path's. trace.Stages times each into its histogram, the
// request's cost card and, when sampled, its span.
type Stage uint8

const (
	StageParse         Stage = iota // document parse: ParsePerRequest reads, a PUT's replacement
	StageLabel                      // read labeling (Figure 2), index lookups included
	StagePrune                      // visibility sweep into the view mask
	StageValidate                   // view re-validation against the loosened DTD
	StageUnparse                    // masked serialization of the view
	StageClassResolve               // requester → authorization-equivalence class
	StageAuthIndexFill              // one authorization path evaluated into the node-set index
	StageMaterialize                // copy of a view for queries
	StageWriteLabel                 // write labeling of an update or PUT
	StageMerge                      // write-through-views merge of a PUT
	StageUpdateResolve              // update-script targets resolved and authorized
	StageUpdateApply                // copy-on-write clone + script operations
	StageDocSerialize               // new generation serialized once through its arena, and hashed
	StageDocPrepare                 // new generation built: edits normalized, defaulted, validated, arena built
	StageWALAppend                  // durable log append (the fsync wait under SyncAlways)
	NumStages
)

// stageNames is the one table of stage names: metric labels, span
// names, cost-card JSON keys and log keys all read it.
var stageNames = [NumStages]string{
	StageParse:         "parse",
	StageLabel:         "label",
	StagePrune:         "prune",
	StageValidate:      "validate",
	StageUnparse:       "unparse",
	StageClassResolve:  "class.resolve",
	StageAuthIndexFill: "authindex.fill",
	StageMaterialize:   "materialize",
	StageWriteLabel:    "write-label",
	StageMerge:         "merge",
	StageUpdateResolve: "update.resolve",
	StageUpdateApply:   "update.apply",
	StageDocSerialize:  "doc.serialize",
	StageDocPrepare:    "doc.prepare",
	StageWALAppend:     "wal.append",
}

func (s Stage) String() string { return stageNames[s] }

// StageHistograms holds one histogram per stage over DefStageBuckets,
// indexed by Stage, so an observation needs no label lookup.
type StageHistograms [NumStages]*Histogram

// NewStageHistograms returns a full set of empty stage histograms.
func NewStageHistograms() *StageHistograms {
	var h StageHistograms
	for i := range h {
		h[i] = newHistogram(DefStageBuckets)
	}
	return &h
}

// RegisterStageHistograms exposes a stage-histogram set as one family
// labeled stage=<name>, every stage listed (none for a nil set).
func (r *Registry) RegisterStageHistograms(name, help string, hs *StageHistograms) {
	r.register(name, help, "histogram", func() []series {
		if hs == nil {
			return nil
		}
		var out []series // in stage-table order
		for i, h := range hs {
			out = append(out, series{labels: []Label{{Name: "stage", Value: stageNames[i]}}, hist: h.snapshot()})
		}
		return out
	})
}

// StageTimes is a request's time per stage in nanoseconds, indexed by
// Stage. It is self time — a stage running inside another (an index
// fill inside label) is not also charged to its container — so the
// entries add up to at most the request's duration. JSON and logs show
// the nonzero stages by name.
type StageTimes [NumStages]int64

func (t StageTimes) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumStages)
	for i, ns := range t {
		if ns != 0 {
			m[stageNames[i]] = ns
		}
	}
	return json.Marshal(m)
}

func (t *StageTimes) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for i, name := range stageNames {
		t[i] = m[name]
	}
	return nil
}

func (t StageTimes) LogValue() slog.Value {
	var attrs []slog.Attr
	for i, ns := range t {
		if ns != 0 {
			attrs = append(attrs, slog.Int64(stageNames[i], ns))
		}
	}
	return slog.GroupValue(attrs...)
}

// EnterStage marks id as the card's innermost running stage and
// returns the mark of the stage it runs inside, for LeaveStage.
func (c *CostCard) EnterStage(id Stage) (outer uint8) {
	outer, c.open = c.open, uint8(id)+1
	return outer
}

// LeaveStage charges d to stage id as self time: it is taken off the
// stage id ran inside.
func (c *CostCard) LeaveStage(id Stage, outer uint8, d time.Duration) {
	c.open = outer
	c.Stages[id] += int64(d)
	if outer != 0 {
		c.Stages[outer-1] -= int64(d)
	}
}
