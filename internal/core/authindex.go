package core

import (
	"context"
	"sync"
	"sync/atomic"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// maxIndexedDocs bounds how many documents the index tracks at once.
// Long-lived sites hold far fewer documents than this; the bound exists
// for workloads (benchmarks, property tests) that push ephemeral
// documents through a shared engine, where unbounded growth would pin
// every document ever labeled.
const maxIndexedDocs = 256

// AuthIndex is the per-document authorization node-set index: for each
// (document, authorization) pair it caches the dense node indexes the
// authorization's path expression selects, so that steady-state labeling
// does zero XPath work.
//
// The cache exploits that a.SelectNodes(doc) depends only on the
// (path, document) pair — never on the requester — while the paper's
// set-at-a-time evaluation (Section 6, E5) still re-ran every applicable
// path once per request. With documents shared and immutable (the mask
// pipeline's invariant), the node-sets are shareable across requests
// too: Engine.Label intersects the cached sets with the per-request
// subject/validity filter from applicable() and only the first request
// after a document or policy change pays the XPath cost.
//
// Entries are keyed on the document pointer and the authorization-store
// generation observed at lookup time; a generation change (any store
// mutation) lazily invalidates the whole per-document entry, and
// InvalidateDoc drops a document eagerly when the server replaces it.
// Fills are singleflighted per (document, authorization): concurrent
// requests needing the same node-set evaluate the path exactly once and
// share the result, while distinct authorizations fill in parallel.
//
// An AuthIndex is safe for concurrent use. The zero value is not usable;
// call NewAuthIndex.
type AuthIndex struct {
	mu    sync.Mutex
	byDoc map[*dom.Document]*docIndex

	hits          atomic.Uint64
	misses        atomic.Uint64
	fills         atomic.Uint64
	invalidations atomic.Uint64

	// stages is the engine's: warm fills, which run with no request
	// card, still reach the authindex.fill histogram.
	stages *trace.Stages
}

// docIndex holds the cached node-sets of one document under one
// authorization-store generation.
type docIndex struct {
	gen uint64

	mu   sync.Mutex
	sets map[*authz.Authorization]*nodeSet
}

// nodeSet is one cached evaluation of an authorization's path over one
// document: the selected element/attribute nodes as dense preorder
// indexes (a dom.Bitmask-compatible representation), in document order
// as SelectIndexesCtx returned them. once singleflights the fill;
// filled flips after the result is visible, distinguishing hits from
// misses.
type nodeSet struct {
	once   sync.Once
	filled atomic.Bool
	idx    []int32
	err    error
}

// NewAuthIndex returns an empty index.
func NewAuthIndex() *AuthIndex {
	return &AuthIndex{byDoc: make(map[*dom.Document]*docIndex)}
}

// entryFor returns the docIndex for (doc, gen), creating it — and
// discarding any entry built under a stale generation — as needed. A
// retired document gets a throwaway entry that is never stored: the
// check runs under x.mu, as InvalidateDoc retires, so no reader can
// re-create a dropped entry.
func (x *AuthIndex) entryFor(doc *dom.Document, gen uint64) *docIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	if doc.Retired() {
		return &docIndex{gen: gen, sets: make(map[*authz.Authorization]*nodeSet)}
	}
	de, ok := x.byDoc[doc]
	if ok && de.gen == gen {
		return de
	}
	if ok {
		// Store mutated since this entry was built: every cached set may
		// be stale with respect to the new authorization population.
		x.invalidations.Add(1)
	}
	if !ok && len(x.byDoc) >= maxIndexedDocs {
		// Evict an arbitrary entry; the map holds only caches, so any
		// victim is safe and will simply refill on next use.
		for d := range x.byDoc {
			delete(x.byDoc, d)
			break
		}
	}
	de = &docIndex{gen: gen, sets: make(map[*authz.Authorization]*nodeSet)}
	x.byDoc[doc] = de
	return de
}

// lookup returns the cached node indexes for authorization a over doc
// under store generation gen, filling the entry (once, even under
// concurrency) on first use. Fills run in index space
// (SelectIndexesCtx): on arena documents the XPath evaluation and the
// cached set never materialize a *dom.Node. The hit result
// reports whether the set was already filled — the per-request trace
// annotates its label span with the totals. Each fill runs as the
// authindex.fill stage (the XPath evaluation a warm request avoids),
// so a sampled trace shows exactly which authorizations this request
// paid for. A retired document is evaluated without caching.
func (x *AuthIndex) lookup(ctx context.Context, doc *dom.Document, gen uint64, a *authz.Authorization) (set []int32, hit bool, err error) {
	de := x.entryFor(doc, gen)
	de.mu.Lock()
	ns := de.sets[a]
	if ns == nil {
		ns = &nodeSet{}
		de.sets[a] = ns
	}
	de.mu.Unlock()
	hit = ns.filled.Load()
	if hit {
		x.hits.Add(1)
	} else {
		x.misses.Add(1)
	}
	ns.once.Do(func() {
		ns.idx, ns.err = x.fill(ctx, doc, gen, a)
		ns.filled.Store(true)
	})
	if ns.err != nil {
		return nil, hit, ns.err
	}
	return ns.idx, hit, nil
}

// fill evaluates a's path over doc as one authindex.fill stage. The
// fill is charged to the request whose goroutine ran the evaluation;
// coalesced misses waiting on the same once record only their miss.
func (x *AuthIndex) fill(ctx context.Context, doc *dom.Document, gen uint64, a *authz.Authorization) ([]int32, error) {
	st := x.stages.Begin(ctx, obs.StageAuthIndexFill)
	idx, err := a.SelectIndexesCtx(st.Context(ctx), doc)
	x.fills.Add(1)
	if card := trace.CostFromContext(ctx); card != nil {
		card.AuthIndexFills++
	}
	if sp := st.Span(); sp.Traced() {
		sp.Lazyf("%s -> %d nodes (gen %d)", a, len(idx), gen)
	}
	st.End()
	return idx, err
}

// Warm pre-fills the index for doc under store generation gen with the
// given authorizations, evaluating up to workers paths concurrently
// (workers ≤ 1 fills serially). Evaluation errors are left cached for
// the serving path to report; Warm itself never fails.
func (x *AuthIndex) Warm(doc *dom.Document, gen uint64, auths []*authz.Authorization, workers int) {
	if doc == nil || len(auths) == 0 {
		return
	}
	if workers > len(auths) {
		workers = len(auths)
	}
	if workers <= 1 {
		for _, a := range auths {
			_, _, _ = x.lookup(context.Background(), doc, gen, a)
		}
		return
	}
	ch := make(chan *authz.Authorization)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				_, _, _ = x.lookup(context.Background(), doc, gen, a)
			}
		}()
	}
	for _, a := range auths {
		ch <- a
	}
	close(ch)
	wg.Wait()
}

// InvalidateDoc drops every cached node-set of doc and retires it —
// the eager counterpart of generation-based invalidation, called when
// the server replaces a document so the superseded tree is released
// immediately: readers that snapshotted it still label it, uncached,
// but can no longer pin it in the index.
func (x *AuthIndex) InvalidateDoc(doc *dom.Document) {
	x.mu.Lock()
	defer x.mu.Unlock()
	doc.Retire()
	if _, ok := x.byDoc[doc]; ok {
		delete(x.byDoc, doc)
		x.invalidations.Add(1)
	}
}

// InvalidateAll drops every entry.
func (x *AuthIndex) InvalidateAll() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.byDoc) > 0 {
		x.invalidations.Add(uint64(len(x.byDoc)))
		x.byDoc = make(map[*dom.Document]*docIndex)
	}
}

// AuthIndexStats is a point-in-time summary of index effectiveness.
type AuthIndexStats struct {
	// Hits and Misses count lookups that found, respectively did not
	// find, a filled node-set. Fills counts actual XPath evaluations;
	// under concurrency several misses can share one fill.
	Hits, Misses, Fills uint64
	// Invalidations counts dropped per-document entries (generation
	// changes, document replacement, InvalidateAll).
	Invalidations uint64
	// Documents is the number of documents currently indexed; Entries is
	// the total number of cached node-sets across them.
	Documents, Entries int
}

// AuthIndexDocInfo describes one indexed document for state
// introspection (/debug/authindexz): which document (by pointer, so the
// caller can join against its own document table), the store generation
// its sets were built under, and how many node-sets are cached.
type AuthIndexDocInfo struct {
	Doc   *dom.Document
	Gen   uint64
	Sets  int
	Nodes int
}

// Inspect returns a snapshot of every indexed document. The result is
// built under the index locks but holds no references into them.
func (x *AuthIndex) Inspect() []AuthIndexDocInfo {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]AuthIndexDocInfo, 0, len(x.byDoc))
	for doc, de := range x.byDoc {
		de.mu.Lock()
		n := len(de.sets)
		de.mu.Unlock()
		out = append(out, AuthIndexDocInfo{Doc: doc, Gen: de.gen, Sets: n, Nodes: doc.NodeCount()})
	}
	return out
}

// Stats returns current counters and sizes.
func (x *AuthIndex) Stats() AuthIndexStats {
	s := AuthIndexStats{
		Hits:          x.hits.Load(),
		Misses:        x.misses.Load(),
		Fills:         x.fills.Load(),
		Invalidations: x.invalidations.Load(),
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	s.Documents = len(x.byDoc)
	for _, de := range x.byDoc {
		de.mu.Lock()
		s.Entries += len(de.sets)
		de.mu.Unlock()
	}
	return s
}
