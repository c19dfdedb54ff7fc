package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
)

// oracle holds what every response must be, computed before timing by
// an uncached Site: no view cache and no node-set index, so each view
// is labeled from scratch. Requesters are grouped by the set of
// subjects that cover them — the definition of an authorization class
// — computed here directly from the hierarchy, independently of the
// server's class index.
type oracle struct {
	classOf  []int      // reader → class
	reps     []int      // class → representative reader
	views    [][][]byte // class → document → expected body; nil = 404
	visible  [][]int    // class → documents with a non-empty view
	eligible []int      // readers that can see at least one document
	queries  [][][]byte // class → query → expected body (document 0)
	// streamClasses are the classes with a visible document, largest
	// first (at most spec.classes of them when that is set); members
	// lists each one's requesters. Views of other classes are not
	// computed.
	streamClasses []int
	members       map[int][]int
}

// newOracleSite builds the uncached reference site over the given
// document sources (the inputs' own, or a write run's final state).
func newOracleSite(in *inputs, srcs []string) (*server.Site, error) {
	s := server.NewSite()
	s.Engine.SetAuthIndex(nil)
	if err := addDirectory(s, in); err != nil {
		return nil, err
	}
	if err := s.Docs.AddDTD(in.dtdURI, in.dtdSrc); err != nil {
		return nil, err
	}
	for i, uri := range in.uris {
		if err := s.Docs.AddDocument(uri, srcs[i]); err != nil {
			return nil, err
		}
	}
	for _, x := range in.xacls {
		if _, err := s.LoadXACL(x); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// addDirectory installs the generated groups and users.
func addDirectory(s *server.Site, in *inputs) error {
	for _, g := range in.groups {
		if err := s.Directory.AddGroup(g); err != nil {
			return err
		}
	}
	for _, u := range in.users {
		if err := s.Directory.AddUser(u.name, u.groups...); err != nil {
			return err
		}
	}
	return nil
}

// subjectUniverse lists the distinct subjects of every authorization
// the inputs install.
func subjectUniverse(in *inputs) ([]subjects.Subject, error) {
	seen := make(map[string]bool)
	var out []subjects.Subject
	for _, src := range in.xacls {
		x, err := authz.ParseXACL(src)
		if err != nil {
			return nil, err
		}
		for _, a := range x.Auths {
			if k := a.Subject.String(); !seen[k] {
				seen[k] = true
				out = append(out, a.Subject)
			}
		}
	}
	return out, nil
}

// buildOracle classifies the readers and computes every expected body.
func buildOracle(in *inputs, srcs []string) (*oracle, error) {
	s, err := newOracleSite(in, srcs)
	if err != nil {
		return nil, err
	}
	universe, err := subjectUniverse(in)
	if err != nil {
		return nil, err
	}
	h := subjects.Hierarchy{Dir: s.Directory}
	o := &oracle{classOf: make([]int, len(in.readers))}
	byKey := make(map[string]int)
	key := make([]byte, len(universe))
	for i, r := range in.readers {
		for j, sub := range universe {
			ok, err := h.AppliesTo(sub, r.rq)
			if err != nil {
				return nil, err
			}
			key[j] = '0'
			if ok {
				key[j] = '1'
			}
		}
		c, ok := byKey[string(key)]
		if !ok {
			c = len(o.reps)
			byKey[string(key)] = c
			o.reps = append(o.reps, i)
		}
		o.classOf[i] = c
	}
	// Classes in order of population. With a fixed working set, bodies
	// are computed only until enough classes with a visible document are
	// found; the rest stay unknown and never receive traffic.
	pop := make([]int, len(o.reps))
	for _, c := range o.classOf {
		pop[c]++
	}
	order := make([]int, len(o.reps))
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(a, b int) bool { return pop[order[a]] > pop[order[b]] })
	o.views = make([][][]byte, len(o.reps))
	o.queries = make([][][]byte, len(o.reps))
	o.visible = make([][]int, len(o.reps))
	for len(order) > 0 {
		n := len(order)
		if in.spec.classes > 0 {
			n = min(n, in.spec.classes-len(o.streamClasses)+4)
		}
		batch := order[:n]
		order = order[n:]
		reps := make([]subjects.Requester, len(batch))
		for i, c := range batch {
			reps[i] = in.readers[o.reps[c]].rq
		}
		views, queries, err := expectedBodies(s, in, reps)
		if err != nil {
			return nil, err
		}
		for i, c := range batch {
			o.views[c], o.queries[c] = views[i], queries[i]
			for d, v := range views[i] {
				if v != nil {
					o.visible[c] = append(o.visible[c], d)
				}
			}
			if len(o.visible[c]) > 0 && (in.spec.classes == 0 || len(o.streamClasses) < in.spec.classes) {
				o.streamClasses = append(o.streamClasses, c)
			}
		}
		if in.spec.classes > 0 && len(o.streamClasses) == in.spec.classes {
			break
		}
	}
	o.members = make(map[int][]int)
	for i, c := range o.classOf {
		if len(o.visible[c]) > 0 {
			o.eligible = append(o.eligible, i)
			o.members[c] = append(o.members[c], i)
		}
	}
	if len(o.eligible) == 0 {
		return nil, fmt.Errorf("no requester can see any document")
	}
	return o, nil
}

// expectedBodies computes, for each requester, its view of every
// document and the result of every query on document 0, exactly as the
// HTTP handlers would write them. Two workers share the classes.
func expectedBodies(s *server.Site, in *inputs, reps []subjects.Requester) (views, queries [][][]byte, err error) {
	views = make([][][]byte, len(reps))
	queries = make([][][]byte, len(reps))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				v, q, err := expectedFor(s, in, reps[c])
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				views[c], queries[c] = v, q
				mu.Unlock()
			}
		}()
	}
	for c := range reps {
		next <- c
	}
	close(next)
	wg.Wait()
	return views, queries, first
}

func expectedFor(s *server.Site, in *inputs, rq subjects.Requester) (views, queries [][]byte, err error) {
	views = make([][]byte, len(in.uris))
	for d, uri := range in.uris {
		res, err := s.Process(rq, uri)
		if errors.Is(err, server.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("oracle view of %s for %s: %w", uri, rq, err)
		}
		views[d] = []byte(res.XML)
		if d != 0 || len(in.queries) == 0 {
			continue
		}
		for _, q := range in.queries {
			qd, err := res.View.QueryResult(q)
			if err != nil {
				return nil, nil, fmt.Errorf("oracle query %q for %s: %w", q, rq, err)
			}
			var b bytes.Buffer
			if err := qd.Write(&b, dom.WriteOptions{Indent: "  "}); err != nil {
				return nil, nil, err
			}
			queries = append(queries, b.Bytes())
		}
	}
	return views, queries, nil
}
