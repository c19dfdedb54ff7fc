package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Recorder. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Capacity is the number of most-recent completed traces kept
	// (default 64).
	Capacity int
	// SlowCapacity bounds the always-keep slow ring (default Capacity).
	SlowCapacity int
	// SlowThreshold is the duration at or above which a completed
	// trace also enters the slow ring, surviving eviction from the
	// recent ring (default 250ms; negative disables slow capture).
	SlowThreshold time.Duration
	// SampleEvery records every Nth request (default DefaultSampleEvery):
	// 1 traces everything, 100 traces one request in a hundred. Untraced
	// requests pay nothing. Note the slow capture only sees sampled
	// requests: at SampleEvery > 1 a slow request between samples leaves
	// no trace.
	SampleEvery int
}

// DefaultSampleEvery is the sampling rate when Options leaves
// SampleEvery unset: one request in 16. Recording a full span tree
// costs a few microseconds per request, which is real money against
// this processor's microsecond-scale cycles; 1-in-16 amortizes that to
// well under 3% while still filling the ring within seconds under any
// real traffic (see BENCH_obs.json, E17). Set SampleEvery to 1 to trace
// every request while debugging.
const DefaultSampleEvery = 16

func (o Options) norm() Options {
	if o.Capacity <= 0 {
		o.Capacity = 64
	}
	if o.SlowCapacity <= 0 {
		o.SlowCapacity = o.Capacity
	}
	switch {
	case o.SlowThreshold == 0:
		o.SlowThreshold = 250 * time.Millisecond
	case o.SlowThreshold < 0:
		o.SlowThreshold = 0 // disabled
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	return o
}

// Recorder makes the per-request sampling decision and keeps two
// bounded rings of completed traces: the last Capacity requests, and
// the last SlowCapacity requests at or above SlowThreshold (which a
// burst of fast traffic therefore cannot evict). Ring insertion is one
// short critical section per completed request; the request path
// itself never touches the rings. A nil *Recorder is valid and records
// nothing.
type Recorder struct {
	capacity      int
	slowCapacity  int
	slowThreshold time.Duration
	sampleEvery   int

	reqs    atomic.Uint64 // all requests offered, sampled or not
	sampled atomic.Uint64

	mu     sync.Mutex
	recent ring
	slow   ring
}

// ring is a fixed-capacity overwrite-oldest buffer of traces.
type ring struct {
	buf  []*Trace
	next int // index of the slot to overwrite
	full bool
}

func (r *ring) add(t *Trace) {
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// list returns the ring newest-first.
func (r *ring) list() []*Trace {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// NewRecorder builds a recorder from opts.
func NewRecorder(opts Options) *Recorder {
	opts = opts.norm()
	return &Recorder{
		capacity:      opts.Capacity,
		slowCapacity:  opts.SlowCapacity,
		slowThreshold: opts.SlowThreshold,
		sampleEvery:   opts.SampleEvery,
		recent:        ring{buf: make([]*Trace, opts.Capacity)},
		slow:          ring{buf: make([]*Trace, opts.SlowCapacity)},
	}
}

// Start makes the sampling decision for one request and returns its
// trace, or nil when the request is not sampled (or r is nil). The
// caller must Finish a non-nil trace.
func (r *Recorder) Start(name string) *Trace {
	if r == nil {
		return nil
	}
	n := r.reqs.Add(1)
	// Sample the 1st, N+1th, … request rather than the Nth, so the very
	// first request after enabling tracing produces a trace.
	if r.sampleEvery > 1 && n%uint64(r.sampleEvery) != 1 {
		return nil
	}
	r.sampled.Add(1)
	return newTrace(r, name, time.Now())
}

// record files a finished trace into the rings.
func (r *Recorder) record(t *Trace) {
	if r == nil {
		return
	}
	slow := r.slowThreshold > 0 && t.Duration() >= r.slowThreshold
	r.mu.Lock()
	r.recent.add(t)
	if slow {
		r.slow.add(t)
	}
	r.mu.Unlock()
}

// SlowThreshold returns the configured slow-capture threshold (0 when
// disabled).
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.slowThreshold
}

// Stats reports requests offered and requests sampled since start.
func (r *Recorder) Stats() (requests, sampled uint64) {
	if r == nil {
		return 0, 0
	}
	return r.reqs.Load(), r.sampled.Load()
}

// Recent returns the completed traces newest-first: the recent ring,
// and the slow ring (slow traces appear in both until evicted from the
// recent ring).
func (r *Recorder) Recent() (recent, slow []*Trace) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recent.list(), r.slow.list()
}

// Lookup finds a completed trace by ID across both rings.
func (r *Recorder) Lookup(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.recent.list() {
		if t.ID == id {
			return t
		}
	}
	for _, t := range r.slow.list() {
		if t.ID == id {
			return t
		}
	}
	return nil
}
