package main

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// spec shapes one workload: the generated site, the traffic mix and the
// server configuration that differs between workloads.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why string

	docs int
	doc  workload.DocConfig
	pop  workload.PopConfig
	// grants is the number of level-2 subtrees each group may read;
	// locations is how many of the requesters' four IP prefixes and four
	// domains carry location-restricted authorizations. With the group
	// structure they bound the number of classes (see genPolicy).
	grants    int
	locations int

	// cache is the view-cache capacity handed to EnableViewCache.
	cache int
	// classes, when positive, fixes the traffic's working set: each read
	// picks one of this many classes uniformly, then a requester of that
	// class, so hit ratios do not drift with the seed. Zero draws
	// requesters uniformly from the whole population.
	classes int

	// Traffic mix: the remainder after queries and writes is GET /docs/.
	queryFrac  float64
	updateFrac float64
	putFrac    float64

	// Durable workloads serve from a write-ahead log: tail is the number
	// of delta records recovery replays at set-up, snapshotBytes the
	// compaction threshold.
	durable       bool
	tail          int
	snapshotBytes int64
}

const (
	wlReadWarm  = "read-warm"
	wlReadChurn = "read-churn"
	wlWriteMix  = "write-mix"
)

// specs returns the three workloads; toy shrinks every size so the
// gate self-test runs in seconds.
func specs(toy bool) map[string]spec {
	m := map[string]spec{
		wlReadWarm: {
			name:      wlReadWarm,
			why:       "every request is a view-cache hit, so it measures the fixed per-request cost: HTTP, basic auth, class memo, cache lookup, metrics",
			docs:      16,
			doc:       workload.DocConfig{Depth: 4, Fanout: 5, Attrs: 2},
			pop:       workload.PopConfig{Users: 10000, Groups: 6, MaxMemberships: 1},
			grants:    3,
			locations: 1,
			cache:     1024,
		},
		wlReadChurn: {
			name:      wlReadChurn,
			why:       "the class working set exceeds the view cache, so most requests label, prune and serialize a 28k-node document; queries add materialize and XPath",
			docs:      1,
			doc:       workload.DocConfig{Depth: 5, Fanout: 6, Attrs: 2},
			pop:       workload.PopConfig{Users: 2000, Groups: 8, MaxMemberships: 2},
			grants:    3,
			locations: 2,
			cache:     16,
			classes:   64,
			queryFrac: 0.2,
		},
		wlWriteMix: {
			name:          wlWriteMix,
			why:           "durable 12k-node document with 8% update scripts and 2% PUTs: each write clones, reparses and revalidates the document and invalidates cached views",
			docs:          1,
			doc:           workload.DocConfig{Depth: 5, Fanout: 5, Attrs: 2},
			pop:           workload.PopConfig{Users: 2000, Groups: 8, MaxMemberships: 2},
			grants:        2,
			locations:     1,
			cache:         16,
			classes:       32,
			updateFrac:    0.08,
			putFrac:       0.02,
			durable:       true,
			tail:          16,
			snapshotBytes: 4 << 20,
		},
	}
	if toy {
		for name, s := range m {
			s.docs = min(s.docs, 2)
			s.doc = workload.DocConfig{Depth: 3, Fanout: 4, Attrs: 2}
			s.pop.Users = 200
			s.cache = min(s.cache, 4)
			s.classes = min(s.classes, 4)
			s.tail = min(s.tail, 4)
			s.snapshotBytes = 64 << 10
			m[name] = s
		}
	}
	return m
}

// requester is one generated client identity: the subject triple the
// server will derive, plus the credentials and forwarded address that
// make it derive exactly that triple.
type requester struct {
	rq   subjects.Requester
	auth string // Authorization header value
}

// elemRef addresses one element of the write-mix document: the
// positional XPath the update scripts use, and the child-element index
// path the client-side model follows to the same node.
type elemRef struct {
	path   string
	idx    []int
	level  int
	leaf   bool
	kids   int    // child elements
	kidsOf string // name used for the insert fragment's element
	insPos int    // position of an inserted kidsOf child among same-name siblings
}

// inputs is everything generated from the seed. The site under test
// only ever sees these texts and identities, never the seed.
type inputs struct {
	spec   spec
	dtdURI string
	dtdSrc string
	uris   []string
	srcs   []string
	xacls  []string
	// groups lists the directory's groups, users its members with their
	// direct groups.
	groups  []string
	users   []userDef
	readers []requester
	writers []requester
	// resolver maps every requester IP to its host name.
	resolver map[string]string
	queries  []string
	// nodes is the indexed node count of each generated document.
	nodes []int
	// regions holds, per writer, the elements of the subtree only that
	// writer edits (write-mix only; hidden from every reader).
	regions [][]elemRef
	// tailScripts are the update scripts recovery replays at set-up.
	tailScripts []tailScript
}

type userDef struct {
	name, password string
	groups         []string
}

type tailScript struct {
	writer int
	script string
}

// generate builds a workload's inputs from the seed: documents, their
// DTD, the subject population, the authorizations, the requesters and
// the query set, all through internal/workload.
func generate(sp spec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: sp, dtdURI: "bench.dtd", resolver: make(map[string]string)}
	docCfg := sp.doc.Norm()
	pop := sp.pop.Norm()
	pop.Seed = rng.Int63()

	d := workload.GenDTD(docCfg)
	in.dtdSrc = d.String()
	docs := make([]*dom.Document, sp.docs)
	for i := range docs {
		c := docCfg
		c.Seed = rng.Int63()
		docs[i] = workload.GenDocument(c)
		docs[i].DocType = &dom.DocType{Name: "root", SystemID: in.dtdURI}
		in.uris = append(in.uris, fmt.Sprintf("doc%02d.xml", i))
		in.srcs = append(in.srcs, docs[i].String())
		in.nodes = append(in.nodes, docs[i].NodeCount())
	}

	// Memberships come from the generated directory, but groups stay
	// flat: a class is then a set of direct groups plus a location, and
	// its view size is fixed by the policy's shape (see genPolicy).
	dir := workload.GenDirectory(pop)
	for g := 0; g < pop.Groups; g++ {
		in.groups = append(in.groups, fmt.Sprintf("g%d", g))
	}
	for u := 0; u < pop.Users; u++ {
		name := fmt.Sprintf("u%d", u)
		ud := userDef{name: name, password: fmt.Sprintf("pw-%d", rng.Intn(1<<30)), groups: dir.DirectGroups(name)}
		in.users = append(in.users, ud)
		rq := workload.GenRequester(pop, rng.Int63())
		rq.User = name
		in.readers = append(in.readers, in.newRequester(rq, ud.password))
	}

	var regionRoots []*dom.Node
	if sp.durable {
		// Each writer edits its own level-2 subtree; the subtrees are
		// disjoint, so the two connections' writes commute.
		root := docs[0].DocumentElement()
		for w := 0; w < 2; w++ {
			l1 := root.ChildElements()
			if len(l1) <= w || len(l1[w].ChildElements()) == 0 {
				return nil, fmt.Errorf("document too small for write regions")
			}
			regionRoots = append(regionRoots, l1[w].ChildElements()[0])
			name := fmt.Sprintf("w%d", w)
			password := fmt.Sprintf("pw-%d", rng.Intn(1<<30))
			in.users = append(in.users, userDef{name: name, password: password})
			in.writers = append(in.writers, in.newRequester(subjects.Requester{
				User: name, IP: fmt.Sprintf("192.0.2.%d", 10+w), Host: fmt.Sprintf("writer%d.example.net", w),
			}, password))
		}
		for _, r := range regionRoots {
			in.regions = append(in.regions, regionElems(r))
		}
	}

	for i, uri := range in.uris {
		auths, err := genPolicy(rng, uri, docs[i], docCfg, pop.Groups, sp, regionRoots)
		if err != nil {
			return nil, err
		}
		if sp.durable {
			ws, err := writerAuths(uri, in.writers, regionRoots)
			if err != nil {
				return nil, err
			}
			auths = append(auths, ws...)
		}
		in.xacls = append(in.xacls, (&authz.XACL{About: uri, Level: authz.InstanceLevel, Auths: auths}).String())
	}
	if sp.queryFrac > 0 {
		in.queries = queryExprs(docCfg)
	}
	for k := 0; k < sp.tail; k++ {
		w := k % len(in.writers)
		in.tailScripts = append(in.tailScripts, tailScript{writer: w, script: sizeNeutralScript(rng, in.regions[w])})
	}
	return in, nil
}

// newRequester registers a requester's address with the resolver. Two
// generated requesters can draw the same IP; the resolver keeps the
// first host, and the requester adopts it, because the server derives
// the host from the IP.
func (in *inputs) newRequester(rq subjects.Requester, password string) requester {
	if h, ok := in.resolver[rq.IP]; ok {
		rq.Host = h
	} else {
		in.resolver[rq.IP] = rq.Host
	}
	return requester{
		rq:   rq.Normalized(),
		auth: "Basic " + base64.StdEncoding.EncodeToString([]byte(rq.User+":"+password)),
	}
}

// genPolicy generates one document's read authorizations with a fixed
// shape and seeded choices. The shape is what keeps views — and so the
// cost of every miss — about the same size from seed to seed:
//
//   - Public may read one level-2 subtree, so every class sees something;
//   - each group may read spec.grants level-2 subtrees, and is denied,
//     inside one of them, the leaves of one name whose attribute has one
//     value and, inside another, one attribute of one level-3 name;
//   - for each of the first spec.locations IP prefixes and domains, Public
//     requesters from there may read one more subtree, and are denied
//     one attribute of the level above the leaves inside it.
//
// Subtrees under exclude (the write regions) are never granted.
func genPolicy(rng *rand.Rand, uri string, doc *dom.Document, c workload.DocConfig, groups int, sp spec, exclude []*dom.Node) ([]*authz.Authorization, error) {
	var units []string
	for _, l1 := range doc.DocumentElement().ChildElements() {
		for _, l2 := range l1.ChildElements() {
			if !containsNode(exclude, l2) {
				units = append(units, positionalPath(l2))
			}
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("document has no level-2 subtrees to grant")
	}
	// Subtrees are dealt from a shuffled deck, so grants overlap only
	// once the deck runs out and a class's view is a fixed number of
	// whole subtrees.
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	dealt := 0
	unit := func() string {
		u := units[dealt%len(units)]
		dealt++
		return u
	}
	leafDeny := func(u string) string {
		return fmt.Sprintf("%s//%s[@a%d='%d']", u, workload.ElemName(c.Depth, rng.Intn(c.Labels)), rng.Intn(c.Attrs), rng.Intn(4))
	}
	attrDeny := func(u string, level int) string {
		return fmt.Sprintf("%s//%s/@a%d", u, workload.ElemName(level, rng.Intn(c.Labels)), rng.Intn(c.Attrs))
	}
	var out []*authz.Authorization
	var err error
	add := func(ug, ip, sn, path string, sign authz.Sign, typ authz.Type) {
		if err != nil {
			return
		}
		var a *authz.Authorization
		a, err = authz.New(subjects.MustNewSubject(ug, ip, sn), authz.Object{URI: uri, PathExpr: path}, authz.ReadAction, sign, typ)
		out = append(out, a)
	}
	add("Public", "*", "*", unit(), authz.Permit, authz.Recursive)
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("g%d", g)
		var mine []string
		for k := 0; k < sp.grants; k++ {
			u := unit()
			mine = append(mine, u)
			add(name, "*", "*", u, authz.Permit, authz.Recursive)
		}
		add(name, "*", "*", leafDeny(mine[rng.Intn(len(mine))]), authz.Deny, authz.Local)
		add(name, "*", "*", attrDeny(mine[rng.Intn(len(mine))], min(3, c.Depth)), authz.Deny, authz.Local)
	}
	for l := 0; l < sp.locations; l++ {
		u := unit()
		add("Public", fmt.Sprintf("10.%d.*", l), "*", u, authz.Permit, authz.Recursive)
		add("Public", "*", fmt.Sprintf("*.dom%d.org", l), attrDeny(u, c.Depth-1), authz.Deny, authz.Local)
	}
	return out, err
}

func containsNode(ns []*dom.Node, n *dom.Node) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

// writerAuths hides the write regions from everyone (a Public denial
// on each region root) and gives each writer a full view plus write
// authority over the regions: the writer's own permits are more
// specific than Public, so they win on the region roots.
func writerAuths(uri string, writers []requester, roots []*dom.Node) ([]*authz.Authorization, error) {
	var out []*authz.Authorization
	add := func(ug, path, action string, sign authz.Sign) error {
		a, err := authz.New(subjects.MustNewSubject(ug, "*", "*"),
			authz.Object{URI: uri, PathExpr: path}, action, sign, authz.Recursive)
		if err != nil {
			return err
		}
		out = append(out, a)
		return nil
	}
	for _, r := range roots {
		if err := add("Public", positionalPath(r), authz.ReadAction, authz.Deny); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := add(w.rq.User, "/root", authz.ReadAction, authz.Permit); err != nil {
			return nil, err
		}
		for _, r := range roots {
			if err := add(w.rq.User, positionalPath(r), authz.ReadAction, authz.Permit); err != nil {
				return nil, err
			}
			if err := add(w.rq.User, positionalPath(r), "write", authz.Permit); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// positionalPath names n by an absolute path of name[position] steps,
// which selects exactly n.
func positionalPath(n *dom.Node) string {
	var steps []string
	for m := n; m != nil && m.Type == dom.ElementNode; m = m.Parent {
		pos := 1
		if p := m.Parent; p != nil && p.Type == dom.ElementNode {
			for _, s := range p.ChildElements() {
				if s == m {
					break
				}
				if s.Name == m.Name {
					pos++
				}
			}
			steps = append(steps, fmt.Sprintf("%s[%d]", m.Name, pos))
		} else {
			steps = append(steps, m.Name)
		}
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return "/" + strings.Join(steps, "/")
}

// regionElems lists every element of a write region with the two
// addresses an edit needs.
func regionElems(root *dom.Node) []elemRef {
	var out []elemRef
	var walk func(n *dom.Node, idx []int, level int)
	walk = func(n *dom.Node, idx []int, level int) {
		kids := n.ChildElements()
		ref := elemRef{
			path: positionalPath(n), idx: append([]int(nil), idx...),
			level: level, leaf: len(kids) == 0, kids: len(kids),
		}
		if len(kids) > 0 {
			// The insert fragment reuses the name of the last child, so the
			// result stays valid under the generated DTD.
			ref.kidsOf = kids[len(kids)-1].Name
			ref.insPos = 1
			for _, k := range kids {
				if k.Name == ref.kidsOf {
					ref.insPos++
				}
			}
		}
		out = append(out, ref)
		for i, k := range kids {
			walk(k, append(idx, i), level+1)
		}
	}
	var idx []int
	for m := root; m.Parent != nil && m.Parent.Type == dom.ElementNode; m = m.Parent {
		p := m.Parent.ChildElements()
		for i, s := range p {
			if s == m {
				idx = append([]int{i}, idx...)
			}
		}
	}
	walk(root, idx, len(idx))
	return out
}

// sizeNeutralScript draws a set-attr or replace-text script on a random
// element of a region: the edits recovery's tail replays.
func sizeNeutralScript(rng *rand.Rand, region []elemRef) string {
	e := region[rng.Intn(len(region))]
	if e.leaf && rng.Intn(2) == 0 {
		return fmt.Sprintf("replace-text %s t%d", e.path, rng.Intn(1000))
	}
	return fmt.Sprintf("set-attr %s a%d=v%d", e.path, rng.Intn(2), rng.Intn(1000))
}

// queryExprs is read-churn's fixed query set: descendant and child
// steps, attribute predicates and results, and one positional
// predicate, which the arena evaluator hands to the tree evaluator.
func queryExprs(c workload.DocConfig) []string {
	e := workload.ElemName
	return []string{
		fmt.Sprintf("//%s[@a0='1']", e(c.Depth-1, 1)),
		fmt.Sprintf("/root/%s/%s/%s", e(1, 0), e(2, 1), e(3, 2)),
		fmt.Sprintf("//%s//%s[@a1='2']", e(2, 2), e(c.Depth, 0)),
		fmt.Sprintf("//%s/%s/@a0", e(2, 0), e(3, 1)),
		fmt.Sprintf("/root/%s/%s[2]", e(1, 1), e(2, 2)),
		fmt.Sprintf("//%s[@a0='3'][@a1='0']", e(c.Depth, 1)),
	}
}
