package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/obs"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/update"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// span is one timed call of the traced run: the server entry point a
// request went through, or one layer's public function re-run on that
// request's inputs. Spans of one request share req; a layer span's
// parent is the entry span when the server makes that call for the
// request, or the request's replay span when it does not (a view-cache
// hit never labels, yet the labeling cost of its input is still worth
// knowing).
type span struct {
	id, parent, req int32
	name            string
	start, dur      time.Duration // start is relative to the run's origin
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(req, parent int32, name string, start, end time.Time) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start.Sub(t.origin), dur: end.Sub(start)})
	return id
}

// end closes a span opened with add(…, start, start) once its children
// have run.
func (t *tracer) end(id int32, end time.Time) {
	s := &t.spans[id-1]
	s.dur = end.Sub(t.origin) - s.start
}

// durations lists the durations of every span with the given name, in
// the unit given as a divisor of nanoseconds.
func (t *tracer) durations(name string, unit float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur)/unit)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the durations of its children.
func (t *tracer) selfTimes(name string, unit float64) []float64 {
	child := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.dur
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur-child[s.id])/unit)
		}
	}
	return out
}

// writeChrome exports the spans as Chrome trace-event JSON, viewable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{")
	first := true
	for _, k := range []string{"workload", "seed", "commit", "go_version"} {
		if !first {
			w.WriteString(",")
		}
		first = false
		fmt.Fprintf(w, "%q:%q", k, fmt.Sprint(header[k]))
	}
	w.WriteString("},\"traceEvents\":[\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		cat := "layer"
		if s.parent == 0 {
			cat = "request"
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":1,"ts":%s,"dur":%s,"args":{"req":%d,"span":%d,"parent":%d}}`,
			s.name, cat, micros(s.start), micros(s.dur), s.req, s.id, s.parent)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func micros(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64) }

// replayer runs a connection-interleaved copy of the request stream
// in process, through the same public entry points the HTTP handlers
// call, against a freshly set-up site.
type replayer struct {
	in       *inputs
	o        *oracle
	site     *server.Site
	m        *model
	streams  []*stream
	i        int
	buf      bytes.Buffer
	problems []string
}

func newReplayer(cfg config, in *inputs, o *oracle, template, dir string) (*replayer, error) {
	if cfg.spec.durable {
		if err := copyDir(template, dir); err != nil {
			return nil, err
		}
	}
	s, err := buildSite(in, dir, nil)
	if err != nil {
		return nil, err
	}
	r := &replayer{in: in, o: o, site: s}
	if err := fillCache(s, in, o); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	if cfg.spec.durable {
		if r.m, err = newModel(in, in.srcs[0]); err != nil {
			return nil, err
		}
	}
	for c := 0; c < conns; c++ {
		r.streams = append(r.streams, newStream(in, o, cfg.seed, c))
	}
	return r, nil
}

func (r *replayer) next() op {
	st := r.streams[r.i%len(r.streams)]
	r.i++
	return st.next()
}

func (r *replayer) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call is one request through the site's entry point under ctx.
type call struct {
	start, end time.Time
	pre        *server.StoredDoc // the document the request ran against
	body       string            // PUT body
}

func (r *replayer) call(ctx context.Context, o op) call {
	uri := r.in.uris[o.doc]
	c := call{pre: r.site.Docs.Doc(uri)}
	switch o.kind {
	case kRead:
		rd := r.in.readers[o.reader]
		c.start = time.Now()
		res, err := r.site.ProcessContext(ctx, rd.rq, uri)
		c.end = time.Now()
		if err != nil || res.XML != string(r.o.views[r.o.classOf[o.reader]][o.doc]) {
			r.problem("replayed read of %s by %s: wrong view (err %v)", uri, rd.rq.User, err)
		}
	case kQuery:
		rd := r.in.readers[o.reader]
		r.buf.Reset()
		c.start = time.Now()
		d, err := r.site.QueryDocContext(ctx, rd.rq, uri, r.in.queries[o.query])
		if err == nil {
			err = d.Write(&r.buf, dom.WriteOptions{Indent: "  "})
		}
		c.end = time.Now()
		if err != nil || !bytes.Equal(r.buf.Bytes(), r.o.queries[r.o.classOf[o.reader]][o.query]) {
			r.problem("replayed query %d by %s: wrong result (err %v)", o.query, rd.rq.User, err)
		}
	case kUpdate:
		c.start = time.Now()
		err := r.site.ApplyUpdate(ctx, r.in.writers[o.writer].rq, uri, o.w.script)
		c.end = time.Now()
		if err != nil {
			r.problem("replayed update %q: %v", o.w.script, err)
		} else {
			r.m.apply(&o.w)
		}
	case kPut:
		n := r.m.node(o.w.elem)
		old, _ := n.Attr(o.w.attr)
		n.SetAttr(o.w.attr, o.w.value)
		c.body = r.m.doc.String()
		c.start = time.Now()
		err := r.site.UpdateContext(ctx, r.in.writers[o.writer].rq, uri, c.body)
		c.end = time.Now()
		if err != nil {
			n.SetAttr(o.w.attr, old)
			r.problem("replayed PUT: %v", err)
		}
	}
	return c
}

// close waits out any background compaction, then closes the log.
func (r *replayer) close() error {
	if err := awaitCompaction(r.site); err != nil {
		return err
	}
	return r.site.CloseDurability()
}

var entryNames = [nKinds]string{"server.process", "server.query", "server.apply_update", "server.put"}

// cardSums accumulates the cost cards of the traced pass.
type cardSums struct {
	obs.CostCard
	requests, classified, updates, writes int64
}

func (s *cardSums) add(c *obs.CostCard, kind opKind) {
	s.requests++
	if c.Class >= 0 {
		s.classified++
	}
	s.NodesLabeled += c.NodesLabeled
	s.NodesSwept += c.NodesSwept
	s.NodesKept += c.NodesKept
	s.ArenaXPathEvals += c.ArenaXPathEvals
	s.TreeXPathEvals += c.TreeXPathEvals
	s.ClassMemoHits += c.ClassMemoHits
	s.WALFsyncWaitNs += c.WALFsyncWaitNs
	s.NodesCopied += c.NodesCopied
	if kind == kUpdate {
		s.updates++
	}
	if kind >= kUpdate {
		s.writes++
	}
}

// tracedRun replays the stream prefix twice on fresh sites — once
// plain, once with a cost card on every request and spans around every
// entry and layer call — and derives the per-layer metrics.
func tracedRun(cfg config, in *inputs, o *oracle, template, work string, hdr map[string]any,
	res *loopResult, before, after counters, sts []setupTimes, peakRSS, readP90 float64) (map[string]metric, []string, error) {
	const maxRequests = 20000
	bg := context.Background()

	// Pass 1: no card, no spans.
	plain, err := newReplayer(cfg, in, o, template, filepath.Join(work, "plain"))
	if err != nil {
		return nil, nil, err
	}
	var plainNs time.Duration
	n := 0
	for start := time.Now(); n < maxRequests && time.Since(start) < cfg.maxPass; n++ {
		c := plain.call(bg, plain.next())
		plainNs += c.end.Sub(c.start)
	}
	problems := plain.problems
	if err := plain.close(); err != nil {
		return nil, nil, err
	}
	plain = nil

	// Pass 2: the same n requests, traced.
	tr, err := newReplayer(cfg, in, o, template, filepath.Join(work, "traced"))
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{origin: time.Now()}
	var sums cardSums
	var tracedNs time.Duration
	var viewBytes []float64
	var parseAllocs, parseMBs []float64
	idx := tr.site.Engine.AuthIndex()
	aiBefore := idx.Stats()
	readEvery := max(1, n/300)
	queryEvery := max(1, int(float64(n)*cfg.spec.queryFrac/100))
	card := &obs.CostCard{}
	for i := 0; i < n; i++ {
		op := tr.next()
		card.Reset()
		ctx := trace.WithRequest(bg, strconv.Itoa(i), card)
		c := tr.call(ctx, op)
		tracedNs += c.end.Sub(c.start)
		req := int32(i)
		entry := t.add(req, 0, entryNames[op.kind], c.start, c.end)
		sums.add(card, op.kind)
		l := layerRun{t: t, req: req, parent: entry, site: tr.site, in: in, pre: c.pre}
		switch op.kind {
		case kRead:
			if i%readEvery != 0 {
				continue
			}
			if card.ViewCacheMisses == 0 {
				// A hit made no layer calls; file the re-runs under a
				// replay span so they do not count against the entry.
				now := time.Now()
				l.parent = t.add(req, 0, "bench.replay", now, now)
			}
			rd := in.readers[op.reader]
			if v := l.view(rd.rq, in.uris[op.doc]); v != nil {
				viewBytes = append(viewBytes, float64(l.serialize(v, c.pre.DTDURI))/1024)
			}
			if l.parent != entry {
				t.end(l.parent, time.Now())
			}
		case kQuery:
			if i%queryEvery != 0 {
				continue
			}
			l.query(in.readers[op.reader].rq, in.uris[op.doc], in.queries[op.query])
		case kUpdate:
			allocs, mbs := l.update(in.writers[op.writer].rq, in.uris[op.doc], op.w.script)
			parseAllocs, parseMBs = append(parseAllocs, allocs), append(parseMBs, mbs)
		case kPut:
			allocs, mbs := l.put(in.writers[op.writer].rq, in.uris[op.doc], c.body)
			parseAllocs, parseMBs = append(parseAllocs, allocs), append(parseMBs, mbs)
		}
		if l.err != nil {
			problems = append(problems, l.err.Error())
			break
		}
	}
	aiAfter := idx.Stats()
	if !cfg.spec.durable {
		// Read workloads never parse while serving: time the parse and
		// validation of their stored documents instead.
		for d, uri := range in.uris[:min(len(in.uris), 4)] {
			for k := 0; k < 3; k++ {
				now := time.Now()
				l := layerRun{t: t, req: int32(-1 - d), site: tr.site, in: in}
				l.parent = t.add(l.req, 0, "bench.replay", now, now)
				allocs, mbs, _ := l.parse(tr.site.Docs.Doc(uri).Source)
				t.end(l.parent, time.Now())
				parseAllocs, parseMBs = append(parseAllocs, allocs), append(parseMBs, mbs)
			}
		}
	}
	classes := tr.site.ClassStats()
	problems = append(problems, tr.problems...)
	if err := tr.close(); err != nil {
		return nil, nil, err
	}

	dir := mkdirAll(filepath.Join(cfg.outDir, "traces"))
	if err := t.writeChrome(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.spec.name, cfg.seed)), hdr); err != nil {
		return nil, nil, err
	}

	const us, ms = 1e3, 1e6
	p50 := func(name string, unit float64) float64 { return median(t.durations(name, unit)) }
	pl := make(map[string]metric)
	put := func(name string, v float64, unit string) { pl[name] = metric{v, unit} }
	processUs := p50("server.process", us)
	put("server.process_us", processUs, "us")
	put("server.http_us", percentile(res.all(kRead), 50)*1e3-processUs, "us")
	put("server.viewcache_hit_ratio", ratio(after.cacheHits-before.cacheHits, after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses), "ratio")
	put("server.viewcache_coalesced", float64(after.coalesced-before.coalesced), "count")
	put("server.apply_update_ms", p50("server.apply_update", ms), "ms")
	put("server.put_ms", p50("server.put", ms), "ms")
	put("server.commit_ms", median(t.selfTimes("server.apply_update", ms)), "ms")
	put("subjects.classes", float64(classes.Classes), "count")
	put("subjects.memo_hit_ratio", ratio(uint64(sums.ClassMemoHits), uint64(sums.classified)), "ratio")
	put("subjects.rebuilds", float64(classes.Rebuilds), "count")
	put("core.view_ms", p50("core.view", ms), "ms")
	put("core.write_label_ms", p50("core.write_label", ms), "ms")
	put("core.nodes_labeled", float64(sums.NodesLabeled)/float64(max(sums.requests, 1)), "count")
	put("core.kept_ratio", ratio(uint64(sums.NodesKept), uint64(sums.NodesSwept)), "ratio")
	put("core.authindex_hit_ratio", ratio(aiAfter.Hits-aiBefore.Hits, aiAfter.Hits-aiBefore.Hits+aiAfter.Misses-aiBefore.Misses), "ratio")
	put("core.authindex_warm_ms", median(mapSetups(sts, func(s setupTimes) float64 { return float64(s.warm) / ms })), "ms")
	put("authz.xacl_load_ms", median(mapSetups(sts, func(s setupTimes) float64 { return float64(s.xacl) / ms })), "ms")
	put("xpath.compile_us", p50("xpath.compile", us), "us")
	put("xpath.query_ms", p50("xpath.query", ms), "ms")
	put("xpath.tree_eval_share", ratio(uint64(sums.TreeXPathEvals), uint64(sums.TreeXPathEvals+sums.ArenaXPathEvals)), "ratio")
	put("dom.serialize_ms", p50("dom.serialize", ms), "ms")
	put("dom.view_kb", median(viewBytes), "KiB")
	put("dom.materialize_ms", p50("dom.materialize", ms), "ms")
	put("dom.doc_serialize_ms", p50("dom.doc_serialize", ms), "ms")
	put("xmlparse.parse_ms", p50("xmlparse.parse", ms), "ms")
	put("xmlparse.mb_per_s", median(parseMBs), "MB/s")
	put("xmlparse.allocs", median(parseAllocs), "count")
	put("dtd.validate_ms", p50("dtd.validate", ms), "ms")
	put("update.parse_us", p50("update.parse", us), "us")
	put("update.resolve_ms", p50("update.resolve", ms), "ms")
	put("update.apply_ms", p50("update.apply", ms), "ms")
	put("update.nodes_copied", float64(sums.NodesCopied)/float64(max(sums.updates, 1)), "count")
	put("wal.snapshots", float64(after.walSnapshots-before.walSnapshots), "count")
	put("wal.replay_s", median(mapSetups(sts, func(s setupTimes) float64 { return s.recovery.Seconds() })), "s")
	put("wal.replay_records", median(mapSetups(sts, func(s setupTimes) float64 { return float64(s.replayed) })), "count")
	put("wal.fsync_wait_us", float64(sums.WALFsyncWaitNs)/us/float64(max(sums.writes, 1)), "us")
	put("wal.bytes_per_write", float64(after.walBytes-before.walBytes)/float64(max(res.writes, 1)), "B")
	put("go.peak_rss_mb", peakRSS, "MiB")
	put("go.gc_per_kreq", float64(after.gcs-before.gcs)/(float64(max(res.completed, 1))/1000), "1/kreq")
	put("bench.trace_overhead_pct", (float64(tracedNs)/float64(max(plainNs, 1))-1)*100, "%")
	put("e2e.read_p90_ms", readP90, "ms")
	put("e2e.read_p99_ms", percentile(res.all(kRead), 99), "ms")
	put("e2e.read_p999_ms", percentile(res.all(kRead), 99.9), "ms")
	put("e2e.query_p50_ms", percentile(res.all(kQuery), 50), "ms")
	put("e2e.query_p90_ms", percentile(res.all(kQuery), 90), "ms")
	writes := res.all(kUpdate, kPut)
	put("e2e.write_p50_ms", percentile(writes, 50), "ms")
	put("e2e.write_p90_ms", percentile(writes, 90), "ms")
	put("e2e.failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio")
	return pl, problems, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerRun re-runs one request's layers on its inputs, each call
// timed as a span under parent.
type layerRun struct {
	t           *tracer
	req, parent int32
	site        *server.Site
	in          *inputs
	pre         *server.StoredDoc
	err         error
}

func (l *layerRun) timed(name string, f func() error) {
	if l.err != nil {
		return
	}
	start := time.Now()
	err := f()
	l.t.add(l.req, l.parent, name, start, time.Now())
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
}

func (l *layerRun) view(rq subjects.Requester, uri string) *core.View {
	var v *core.View
	l.timed("core.view", func() (err error) {
		v, err = l.site.Engine.ComputeViewCtx(context.Background(),
			core.Request{Requester: rq, URI: uri, DTDURI: l.pre.DTDURI}, l.pre.Doc)
		return err
	})
	return v
}

func (l *layerRun) serialize(v *core.View, dtdURI string) int {
	var b bytes.Buffer
	l.timed("dom.serialize", func() error {
		return v.WriteXML(&b, dom.WriteOptions{Indent: "  ", OmitDocType: dtdURI == ""})
	})
	return b.Len()
}

func (l *layerRun) query(rq subjects.Requester, uri, expr string) {
	l.timed("xpath.compile", func() error { _, err := xpath.Compile(expr); return err })
	v := l.view(rq, uri)
	if v == nil {
		return
	}
	l.timed("dom.materialize", func() error { v.Materialize(); return nil })
	l.timed("xpath.query", func() error { _, err := v.QueryResultCtx(context.Background(), expr); return err })
}

// writeLabel labels the pre-state for the write action and returns the
// requester's write predicate over node indexes.
func (l *layerRun) writeLabel(rq subjects.Requester, uri string) *core.Labeling {
	var lb *core.Labeling
	l.timed("core.write_label", func() (err error) {
		lb, _, err = l.site.Engine.LabelCtx(context.Background(),
			core.Request{Requester: rq, URI: uri, DTDURI: l.pre.DTDURI, Action: server.WriteAction}, l.pre.Doc)
		return err
	})
	return lb
}

// update re-runs ApplyUpdate's layers: script parse, read view, write
// labeling, resolve, apply, serialize, reparse and revalidate.
func (l *layerRun) update(rq subjects.Requester, uri, src string) (allocs, mbs float64) {
	var s *update.Script
	l.timed("update.parse", func() (err error) { s, err = update.ParseScript(src); return err })
	v := l.view(rq, uri)
	lb := l.writeLabel(rq, uri)
	if l.err != nil {
		return 0, 0
	}
	pol := l.site.Engine.PolicyFor(uri)
	var res *update.Resolution
	l.timed("update.resolve", func() error {
		var rep []update.OpError
		res, rep = update.Resolve(context.Background(), l.pre.Doc, s,
			func(i int32) bool { return v.Mask.VisibleIdx(i) },
			func(i int32) bool { return pol.Grants(lb.FinalAt(int(i))) })
		if rep != nil {
			return fmt.Errorf("%v", rep)
		}
		return nil
	})
	var out *dom.Document
	l.timed("update.apply", func() (err error) { out, _, err = update.Apply(l.pre.Doc, s, res.Targets); return err })
	var newSrc string
	l.timed("dom.doc_serialize", func() error { newSrc = out.String(); return nil })
	if l.err != nil {
		return 0, 0
	}
	allocs, mbs, _ = l.parse(newSrc)
	return allocs, mbs
}

// put re-runs UpdateContext's layers: read view, parse of the body,
// write labeling, merge, validation and serialization of the result.
func (l *layerRun) put(rq subjects.Requester, uri, body string) (allocs, mbs float64) {
	v := l.view(rq, uri)
	allocs, mbs, parsed := l.parse(body)
	lb := l.writeLabel(rq, uri)
	if l.err != nil {
		return allocs, mbs
	}
	pol := l.site.Engine.PolicyFor(uri)
	var merged *dom.Document
	l.timed("core.merge", func() (err error) {
		merged, err = core.MergeView(l.pre.Doc, v, parsed, func(n *dom.Node) bool { return pol.Grants(lb.FinalOf(n)) })
		return err
	})
	l.timed("dtd.validate", func() error {
		if errs := l.site.Docs.DTD(l.pre.DTDURI).Validate(merged, dtd.ValidateOptions{IgnoreIDs: true}); errs != nil {
			return errs
		}
		return nil
	})
	l.timed("dom.doc_serialize", func() error { _ = merged.String(); return nil })
	return allocs, mbs
}

// parse times xmlparse.Parse of src, counting its allocations, then
// validates the result against its DTD as the document store does.
func (l *layerRun) parse(src string) (allocs, mbs float64, doc *dom.Document) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var res *xmlparse.Result
	start := time.Now()
	l.timed("xmlparse.parse", func() (err error) {
		res, err = xmlparse.Parse(src, xmlparse.Options{
			Loader: xmlparse.MapLoader{l.in.dtdURI: l.in.dtdSrc}, ApplyDefaults: true,
		})
		return err
	})
	d := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if l.err != nil {
		return 0, 0, nil
	}
	l.timed("dtd.validate", func() error {
		res.DTD.Name = res.Doc.DocType.Name
		if errs := res.DTD.Validate(res.Doc, dtd.ValidateOptions{}); errs != nil {
			return errs
		}
		return nil
	})
	return float64(ms1.Mallocs - ms0.Mallocs), float64(len(src)) / 1e6 / d.Seconds(), res.Doc
}
