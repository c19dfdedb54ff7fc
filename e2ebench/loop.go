package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
)

// opKind is a request kind of the traffic mix.
type opKind int

const (
	kRead   opKind = iota // GET /docs/{uri}
	kQuery                // GET /query/{uri}?q=
	kUpdate               // POST /docs/{uri}/update
	kPut                  // PUT /docs/{uri}
	nKinds
)

// op is one request of a connection's stream.
type op struct {
	kind   opKind
	reader int // readers index (read, query)
	doc    int
	query  int
	writer int // writers index (update, put)
	w      writeOp
}

// writeOp is one write: an update script, or a PUT of the writer's
// full view with one attribute changed. elem is the edited element.
type writeOp struct {
	kind        string // set-attr, replace-text, insert-into, delete, put
	elem        *elemRef
	attr, value string
	text        string
	frag        [3]int // insert: a0, a1 and text values
	script      string
}

// stream is one connection's deterministic request sequence. Each
// connection writes only inside its own region, so its edits commute
// with the other connection's and the expected final document does
// not depend on how the two interleave.
type stream struct {
	in      *inputs
	o       *oracle
	rng     *rand.Rand
	writer  int
	pending *elemRef // element holding this stream's not-yet-deleted insert
	parents []*elemRef
	deck    []opKind // the rest of the current cycle
}

func newStream(in *inputs, o *oracle, seed int64, conn int) *stream {
	s := &stream{in: in, o: o, rng: rand.New(rand.NewSource(seed*1000003 + int64(conn) + 1)), writer: conn}
	if in.spec.durable {
		reg := in.regions[conn%len(in.regions)]
		s.writer = conn % len(in.writers)
		for i := range reg {
			if e := &reg[i]; e.kids > 0 && e.level == in.spec.doc.Norm().Depth-1 {
				s.parents = append(s.parents, e)
			}
		}
	}
	return s
}

// cycle is the number of requests over which a stream's mix is exact:
// each cycle holds round(fraction × cycle) requests of every kind, in a
// seeded order, so the share of writes and queries in a window does not
// drift with chance.
const cycle = 50

func (s *stream) next() op {
	if len(s.deck) == 0 {
		sp := s.in.spec
		for k, f := range map[opKind]float64{kQuery: sp.queryFrac, kUpdate: sp.updateFrac, kPut: sp.putFrac} {
			for i := 0; i < int(math.Round(f*cycle)); i++ {
				s.deck = append(s.deck, k)
			}
		}
		for len(s.deck) < cycle {
			s.deck = append(s.deck, kRead)
		}
		sort.Slice(s.deck, func(i, j int) bool { return s.deck[i] < s.deck[j] })
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	kind := s.deck[0]
	s.deck = s.deck[1:]
	switch kind {
	case kUpdate:
		return op{kind: kUpdate, writer: s.writer, w: s.update()}
	case kPut:
		reg := s.in.regions[s.writer]
		e := &reg[s.rng.Intn(len(reg))]
		return op{kind: kPut, writer: s.writer, w: writeOp{
			kind: "put", elem: e, attr: fmt.Sprintf("a%d", s.rng.Intn(2)), value: fmt.Sprintf("p%d", s.rng.Intn(1000)),
		}}
	}
	rd := s.o.eligible[s.rng.Intn(len(s.o.eligible))]
	if s.in.spec.classes > 0 {
		m := s.o.members[s.o.streamClasses[s.rng.Intn(len(s.o.streamClasses))]]
		rd = m[s.rng.Intn(len(m))]
	}
	vis := s.o.visible[s.o.classOf[rd]]
	o := op{kind: kRead, reader: rd, doc: vis[s.rng.Intn(len(vis))]}
	if kind == kQuery {
		o.kind, o.doc, o.query = kQuery, 0, s.rng.Intn(len(s.in.queries))
	}
	return o
}

// update draws a size-neutral edit: attribute and text changes, and
// inserts that a later update of the same stream deletes again.
func (s *stream) update() writeOp {
	reg := s.in.regions[s.writer]
	if s.pending != nil && s.rng.Intn(3) == 0 {
		e := s.pending
		s.pending = nil
		return writeOp{kind: "delete", elem: e,
			script: fmt.Sprintf("delete %s/%s[%d]", e.path, e.kidsOf, e.insPos)}
	}
	switch s.rng.Intn(3) {
	case 0:
		for {
			e := &reg[s.rng.Intn(len(reg))]
			if e.leaf {
				t := fmt.Sprintf("t%d", s.rng.Intn(1000))
				return writeOp{kind: "replace-text", elem: e, text: t,
					script: fmt.Sprintf("replace-text %s %s", e.path, t)}
			}
		}
	case 1:
		if s.pending == nil && len(s.parents) > 0 {
			e := s.parents[s.rng.Intn(len(s.parents))]
			s.pending = e
			w := writeOp{kind: "insert-into", elem: e, frag: [3]int{s.rng.Intn(4), s.rng.Intn(4), s.rng.Intn(100)}}
			w.script = fmt.Sprintf("insert-into %s %s", e.path, w.fragment())
			return w
		}
	}
	e := &reg[s.rng.Intn(len(reg))]
	w := writeOp{kind: "set-attr", elem: e, attr: fmt.Sprintf("a%d", s.rng.Intn(2)), value: fmt.Sprintf("v%d", s.rng.Intn(1000))}
	w.script = fmt.Sprintf("set-attr %s %s=%s", e.path, w.attr, w.value)
	return w
}

func (w *writeOp) fragment() string {
	return fmt.Sprintf(`<%s a0="%d" a1="%d">v%d</%s>`, w.elem.kidsOf, w.frag[0], w.frag[1], w.frag[2], w.elem.kidsOf)
}

// model is the client's record of what the write-mix document must be
// after every acknowledged write. Its mutex also serializes writes
// across connections for the whole request, so a PUT body built from
// the model is exactly the writer's current view.
type model struct {
	mu  sync.Mutex
	doc *dom.Document
}

func newModel(in *inputs, src string) (*model, error) {
	res, err := xmlparse.Parse(src, xmlparse.Options{
		Loader: xmlparse.MapLoader{in.dtdURI: in.dtdSrc}, ApplyDefaults: true,
	})
	if err != nil {
		return nil, err
	}
	// The model is edited in place, so it must serialize from the tree,
	// not from the parse-time arena.
	res.Doc.DropArena()
	return &model{doc: res.Doc}, nil
}

func (m *model) node(e *elemRef) *dom.Node {
	n := m.doc.DocumentElement()
	for _, i := range e.idx {
		n = n.ChildElements()[i]
	}
	return n
}

// apply records an acknowledged update script.
func (m *model) apply(w *writeOp) {
	n := m.node(w.elem)
	switch w.kind {
	case "set-attr":
		n.SetAttr(w.attr, w.value)
	case "replace-text":
		n.Children[0].Data = w.text
	case "insert-into":
		c := dom.NewElement(w.elem.kidsOf)
		c.SetAttr("a0", fmt.Sprint(w.frag[0]))
		c.SetAttr("a1", fmt.Sprint(w.frag[1]))
		c.AppendChild(dom.NewText(fmt.Sprintf("v%d", w.frag[2])))
		n.AppendChild(c)
	case "delete":
		kids := n.ChildElements()
		n.RemoveChild(kids[len(kids)-1])
	}
}

// conn is one keep-alive client connection.
type conn struct {
	tr  *http.Transport
	cl  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, cl: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request as r and returns the status and the body, which
// stays valid until the next call.
func (c *conn) do(method, u string, body []byte, r requester) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", r.auth)
	req.Header.Set("X-Forwarded-For", r.rq.IP)
	resp, err := c.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) get(u string, r requester) (int, []byte, error) {
	return c.do(http.MethodGet, u, nil, r)
}

// client drives one connection through its stream, checks every
// response and records latencies.
type client struct {
	in   *inputs
	o    *oracle
	m    *model
	base string
	c    *conn
	st   *stream
	urls []string // query URL suffixes, by query index
	res  loopResult
}

// loopResult aggregates one closed-loop run. Counts and latencies cover
// the requests started inside the measurement window; any failure,
// warm-up included, lands in problems.
type loopResult struct {
	// lat holds latencies in milliseconds by kind and by the one-second
	// slice of the window the request started in (float32 keeps the
	// samples of a long read-warm window small next to the server);
	// done counts correct requests finished in each slice.
	lat       [nKinds][][]float32
	done      []int
	attempted int
	failed    int
	completed int // correct and finished inside the window
	writes    int
	acked     int // acknowledged writes, warm-up included
	problems  []string
}

func newLoopResult(slices int) loopResult {
	r := loopResult{done: make([]int, slices)}
	for k := range r.lat {
		r.lat[k] = make([][]float32, slices)
	}
	return r
}

func (r *loopResult) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// sliced returns the median over the window's one-second slices of
// f applied to each slice's latency samples of kind k. Taking the
// median of slices keeps a burst of interference from a neighbouring
// process out of the reported figure.
func (r *loopResult) sliced(k opKind, f func([]float64) float64) float64 {
	var vals []float64
	for _, xs := range r.lat[k] {
		if len(xs) > 0 {
			vals = append(vals, f(widen(xs)))
		}
	}
	return median(vals)
}

// all returns every latency sample of the given kinds.
func (r *loopResult) all(kinds ...opKind) []float64 {
	var out []float64
	for _, k := range kinds {
		for _, xs := range r.lat[k] {
			out = append(out, widen(xs)...)
		}
	}
	return out
}

func widen(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// throughput is the median over slices of correct requests per second.
func (r *loopResult) throughput() float64 {
	vals := make([]float64, len(r.done))
	for i, n := range r.done {
		vals[i] = float64(n)
	}
	return median(vals)
}

func (r *loopResult) merge(o *loopResult) {
	for k := range r.lat {
		for i := range r.lat[k] {
			r.lat[k][i] = append(r.lat[k][i], o.lat[k][i]...)
		}
	}
	for i, n := range o.done {
		r.done[i] += n
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.completed += o.completed
	r.writes += o.writes
	r.acked += o.acked
	for _, p := range o.problems {
		r.problem("%s", p)
	}
}

// issue sends one op and reports whether the response was correct.
func (cl *client) issue(o op) bool {
	uri := cl.in.uris[o.doc]
	switch o.kind {
	case kRead, kQuery:
		r := cl.in.readers[o.reader]
		class := cl.o.classOf[o.reader]
		want := cl.o.views[class][o.doc]
		u := cl.base + "/docs/" + uri
		if o.kind == kQuery {
			want = cl.o.queries[class][o.query]
			u = cl.base + "/query/" + uri + cl.urls[o.query]
		}
		status, body, err := cl.c.get(u, r)
		switch {
		case err != nil:
			cl.res.problem("%s %s: %v", r.rq.User, u, err)
		case status != http.StatusOK:
			cl.res.problem("%s %s: status %d", r.rq.User, u, status)
		case !bytes.Equal(body, want):
			cl.res.problem("%s %s: body differs from the oracle (%d vs %d bytes)", r.rq.User, u, len(body), len(want))
		default:
			return true
		}
		return false
	}
	w := cl.in.writers[o.writer]
	cl.m.mu.Lock()
	defer cl.m.mu.Unlock()
	var status int
	var err error
	if o.kind == kPut {
		n := cl.m.node(o.w.elem)
		old, _ := n.Attr(o.w.attr)
		n.SetAttr(o.w.attr, o.w.value)
		status, _, err = cl.c.do(http.MethodPut, cl.base+"/docs/"+uri, []byte(cl.m.doc.String()), w)
		if err != nil || status != http.StatusNoContent {
			n.SetAttr(o.w.attr, old)
		}
	} else {
		status, _, err = cl.c.do(http.MethodPost, cl.base+"/docs/"+uri+"/update", []byte(o.w.script), w)
		if err == nil && status == http.StatusNoContent {
			cl.m.apply(&o.w)
		}
	}
	switch {
	case err != nil:
		cl.res.problem("%s %s: %v", o.w.kind, o.w.elem.path, err)
	case status != http.StatusNoContent:
		cl.res.problem("%s %s: status %d", o.w.kind, o.w.elem.path, status)
	default:
		return true
	}
	return false
}

// runLoop drives the served site from conns connections in a closed
// loop: warm-up, then the measurement window.
//
// tick runs on the calling goroutine at every slice boundary of the
// window, i = 0 at its start through i = slices at its end, to read
// counters there.
func runLoop(sv *served, in *inputs, o *oracle, m *model, seed int64, conns int, warmup, window time.Duration, tick func(i int)) *loopResult {
	urls := make([]string, len(in.queries))
	for i, q := range in.queries {
		urls[i] = "?q=" + url.QueryEscape(q)
	}
	slices := max(1, int(window/time.Second))
	start := time.Now()
	t0, t1 := start.Add(warmup), start.Add(warmup+window)
	clients := make([]*client, conns)
	var wg sync.WaitGroup
	for i := range clients {
		cl := &client{in: in, o: o, m: m, base: sv.base, c: newConn(), st: newStream(in, o, seed, i), urls: urls}
		cl.res = newLoopResult(slices)
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.c.close()
			for {
				ts := time.Now()
				if !ts.Before(t1) {
					return
				}
				op := cl.st.next()
				ok := cl.issue(op)
				te := time.Now()
				if ok && op.kind >= kUpdate {
					cl.res.acked++
				}
				if !ts.Before(t0) {
					cl.res.attempted++
					if !ok {
						cl.res.failed++
						continue
					}
					sl := &cl.res.lat[op.kind][int(ts.Sub(t0)/time.Second)]
					*sl = append(*sl, float32(te.Sub(ts).Seconds()*1e3))
					if !te.After(t1) {
						cl.res.completed++
						cl.res.done[min(int(te.Sub(t0)/time.Second), len(cl.res.done)-1)]++
					}
					if op.kind >= kUpdate {
						cl.res.writes++
					}
				}
			}
		}()
	}
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * time.Second)))
		tick(i)
	}
	wg.Wait()
	res := newLoopResult(slices)
	for _, cl := range clients {
		res.merge(&cl.res)
	}
	return &res
}

// faults injects server-side misbehaviour for the gate self-test.
type faults struct {
	// corruptRead flips one byte in the body of the n-th GET /docs/
	// response (1-based; 0 = never).
	corruptRead int64
	// dropWrite acknowledges the n-th write with 204 without passing it
	// to the site (1-based; 0 = never).
	dropWrite int64
	// truncateWAL cuts the last bytes of the newest log segment after
	// the run, before recovery.
	truncateWAL bool
}

func (f faults) wrap(next http.Handler) http.Handler {
	if f.corruptRead == 0 && f.dropWrite == 0 {
		return next
	}
	var reads, writes atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/docs/"):
			if reads.Add(1) == f.corruptRead {
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				if len(body) > 0 {
					body[len(body)/2] ^= 0x20
				}
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(body)
				return
			}
		case r.Method == http.MethodPut || r.Method == http.MethodPost:
			if writes.Add(1) == f.dropWrite {
				_, _ = io.Copy(io.Discard, r.Body)
				w.WriteHeader(http.StatusNoContent)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}
