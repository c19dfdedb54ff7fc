package trace

import (
	"context"
	"time"

	"xmlsec/internal/obs"
)

// Stages is the one instrumentation primitive of the processor's
// layers: a fixed set of stage histograms, already looked up.
//
//	st := stages.Begin(ctx, obs.StagePrune)
//	… the stage's work …
//	st.End()
//
// The engine owns one (core.NewEngine) and shares it with its node-set
// index and its views; the site's registry exposes it as
// xmlsec_stage_duration_seconds. A nil *Stages still charges the
// request's card and span; it only skips the histograms.
type Stages struct{ hist *obs.StageHistograms }

// NewStages returns a stage set with empty histograms.
func NewStages() *Stages { return &Stages{hist: obs.NewStageHistograms()} }

// Histograms returns the set's histograms (nil for a nil set).
func (s *Stages) Histograms() *obs.StageHistograms {
	if s == nil {
		return nil
	}
	return s.hist
}

// StageTimer is one running stage. It is a value: a stage allocates
// nothing unless the request is sampled for tracing.
type StageTimer struct {
	id    obs.Stage
	outer uint8 // see obs.CostCard.EnterStage
	start time.Time
	h     *obs.Histogram
	card  *obs.CostCard
	sp    *Span
}

// Begin starts stage id: it reads the clock once, enters the stage on
// the request's cost card when ctx carries one, and starts the stage's
// span when the request is traced.
func (s *Stages) Begin(ctx context.Context, id obs.Stage) StageTimer {
	t := StageTimer{id: id, start: time.Now(), card: CostFromContext(ctx)}
	if s != nil {
		t.h = s.hist[id]
	}
	if t.card != nil {
		t.outer = t.card.EnterStage(id)
	}
	if parent := SpanFromContext(ctx); parent != nil {
		t.sp = parent.tr.startSpan(id.String(), parent, t.start)
	}
	return t
}

// Context returns ctx with the stage's span current, so stages and
// spans started under it nest inside this stage; untraced, ctx itself.
func (t StageTimer) Context(ctx context.Context) context.Context {
	return NewContext(ctx, t.sp)
}

// Span returns the stage's span (nil when untraced) for annotations.
func (t StageTimer) Span() *Span { return t.sp }

// End reads the clock once and records the stage's duration into its
// histogram, onto the request's card, and as its span's duration when
// traced; it returns the duration. End must run once on every path,
// error paths included.
func (t StageTimer) End() time.Duration {
	d := time.Since(t.start)
	if t.h != nil {
		t.h.Observe(d.Seconds())
	}
	if t.card != nil {
		t.card.LeaveStage(t.id, t.outer, d)
	}
	if t.sp != nil {
		t.sp.endWith(d)
	}
	return d
}
