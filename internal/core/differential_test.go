package core_test

import (
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// The view pipeline (arena labeling by propagation, visibility mask,
// masked serialization) must be observationally identical to the
// paper's specification: for any document, authorization set and
// requester, serializing the shared document through the visibility
// mask yields byte-for-byte the XML of the specification oracle below.

// diffWriteOptions are the serialization shapes compared in every
// differential check (flat, pretty, with and without prolog).
var diffWriteOptions = []dom.WriteOptions{
	{},
	{Indent: "  "},
	{OmitDecl: true, OmitDocType: true},
	{Indent: "\t", OmitDecl: true},
}

// specView is the specification oracle's view of a document: the
// per-node definition of Figure 2 (NaiveLabel — pointer-tree XPath per
// authorization, every node climbing its own ancestor chain, no
// propagation) followed by the physical §6.2 pruning of PruneDoc, both
// on a private arena-less copy of the document. It shares no labeling,
// XPath or serialization code with the pipeline under test.
type specView struct {
	doc      *dom.Document // the pruned copy
	nonEmpty bool
	stats    core.Stats // Nodes, Plus, Minus, Eps and Kept only
}

func specOracle(t *testing.T, ctx string, eng *core.Engine, req core.Request, doc *dom.Document) specView {
	t.Helper()
	work := doc.Clone()
	lb, err := eng.NaiveLabel(req, work, true)
	if err != nil {
		t.Fatalf("%s: specification oracle: %v", ctx, err)
	}
	var sv specView
	sv.stats.Nodes = work.CountNodes()
	sv.stats.Plus, sv.stats.Minus, sv.stats.Eps = lb.Count()
	sv.nonEmpty = core.PruneDoc(work, lb, eng.PolicyFor(req.URI))
	sv.stats.Kept = work.CountNodes()
	sv.doc = work
	return sv
}

// assertPipelinesAgree computes the view of doc for req through the
// pipeline and through the specification oracle and fails the test on
// any observable difference.
func assertPipelinesAgree(t *testing.T, ctx string, eng *core.Engine, req core.Request, doc *dom.Document) {
	t.Helper()
	mv, err := eng.ComputeView(req, doc)
	if err != nil {
		t.Fatalf("%s: view pipeline: %v", ctx, err)
	}
	sv := specOracle(t, ctx, eng, req, doc)
	if mv.Empty() == sv.nonEmpty {
		t.Fatalf("%s: emptiness disagrees: pipeline empty=%v, spec empty=%v", ctx, mv.Empty(), !sv.nonEmpty)
	}
	got := mv.Stats
	got.AuthsInstance, got.AuthsSchema = 0, 0
	if got != sv.stats {
		t.Errorf("%s: stats disagree: pipeline %+v, spec %+v", ctx, got, sv.stats)
	}
	for _, opts := range diffWriteOptions {
		var a, b strings.Builder
		if err := mv.WriteXML(&a, opts); err != nil {
			t.Fatalf("%s: pipeline serialization: %v", ctx, err)
		}
		if err := sv.doc.Write(&b, opts); err != nil {
			t.Fatalf("%s: spec serialization: %v", ctx, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: serializations differ (opts %+v):\n--- pipeline ---\n%s\n--- spec ---\n%s",
				ctx, opts, a.String(), b.String())
		}
	}
	// The materialized view must match the pruned copy as a tree.
	if got, want := mv.Materialize().StringIndent("  "), sv.doc.StringIndent("  "); got != want {
		t.Errorf("%s: materialized view differs from the spec's pruned copy:\n--- pipeline ---\n%s\n--- spec ---\n%s",
			ctx, got, want)
	}
}

// TestDifferentialFixtures sweeps the directed pruning fixtures —
// every corner of the prune semantics (structure-only ancestors,
// withheld text, attribute-kept shells, comments/PIs, open and closed
// policies, empty views) — through the pipeline and the oracle.
func TestDifferentialFixtures(t *testing.T) {
	cases := []struct {
		name   string
		docXML string
		tuples []string
		pol    core.Policy
	}{
		{"subtree", `<a><b><c>deep</c></b><d>gone</d></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b/c,read,+,R>`}, core.Policy{}},
		{"structure-text", `<a>secret<b>ok</b></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b,read,+,R>`}, core.Policy{}},
		{"denied-attr", `<a x="1" y="2"/>`,
			[]string{
				`<<Public,*,*>,doc.xml:/a,read,+,L>`,
				`<<Public,*,*>,doc.xml:/a/@y,read,-,L>`,
			}, core.Policy{}},
		{"attr-shell", `<a><b x="1">hidden</b></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b/@x,read,+,L>`}, core.Policy{}},
		{"empty-view", `<a><b/></a>`, nil, core.Policy{}},
		{"open-policy", `<a><b>keep</b><c>no</c></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/c,read,-,R>`}, core.Policy{Open: true}},
		{"closed-policy", `<a><b>keep</b><c>no</c></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b,read,+,R>`}, core.Policy{}},
		{"weak-override", `<a><b>x</b></a>`,
			[]string{
				`<<Public,*,*>,doc.xml:/a,read,+,RW>`,
				`<<Public,*,*>,doc.xml:/a/b,read,-,L>`,
			}, core.Policy{}},
		{"mixed-depth", `<r><a p="1"><b>t1</b><c q="2">t2<d/></c></a><e>t3</e></r>`,
			[]string{
				`<<Public,*,*>,doc.xml:/r/a,read,+,R>`,
				`<<Public,*,*>,doc.xml:/r/a/c,read,-,L>`,
				`<<Public,*,*>,doc.xml:/r/a/c/d,read,+,L>`,
			}, core.Policy{}},
	}
	for _, c := range cases {
		res, err := xmlparse.Parse(c.docXML, xmlparse.Options{KeepComments: true})
		if err != nil {
			t.Fatal(err)
		}
		dir := subjects.NewDirectory()
		if err := dir.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		store := authz.NewStore()
		for _, tu := range c.tuples {
			if err := store.Add(authz.InstanceLevel, mustAuth(t, tu)); err != nil {
				t.Fatal(err)
			}
		}
		eng := core.NewEngine(dir, store)
		eng.Default = c.pol
		req := core.Request{
			Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
			URI:       "doc.xml",
		}
		assertPipelinesAgree(t, c.name, eng, req, res.Doc)
	}
}

// TestDifferentialFigure1 runs the paper's running example (Figure 1
// document, Figure 4/5 authorizations) for each of its characteristic
// requesters through the pipeline and the oracle.
func TestDifferentialFigure1(t *testing.T) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	for _, rq := range []subjects.Requester{
		labexample.Tom,
		{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
		{User: "anonymous", IP: "200.1.2.3", Host: "outside.example.com"},
		{User: "Alice", IP: "151.100.1.1", Host: "a.dsi.it"},
	} {
		req := core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
		assertPipelinesAgree(t, "figure1/"+rq.User, eng, req, doc)
	}
}

// TestDifferentialRandomized checks the pipeline against the oracle on
// generated documents, DTDs, populations and authorization sets.
func TestDifferentialRandomized(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng, req, doc, _ := randomSetup(seed)
		assertPipelinesAgree(t, "seed", eng, req, doc)
	}
}

// deepChain builds <d>hidden<c>hidden<c>…<leaf>visible</leaf>…</c></d>
// with depth nested <c> elements.
func deepChain(depth int) *dom.Document {
	doc := dom.NewDocument()
	root := dom.NewElement("d")
	doc.SetDocumentElement(root)
	cur := root
	for i := 0; i < depth; i++ {
		cur.AppendChild(dom.NewText("hidden"))
		next := dom.NewElement("c")
		cur.AppendChild(next)
		cur = next
	}
	leaf := dom.NewElement("leaf")
	leaf.AppendChild(dom.NewText("visible"))
	cur.AppendChild(leaf)
	doc.Renumber()
	return doc
}

// TestDifferentialDeepDocument pins the pipeline — recursive labeling,
// mask construction, and serialization — on a 10000-element-deep chain
// with the only grant on the deepest leaf, so every ancestor survives
// as structure without its text. None of the recursions may overflow,
// and the output must be exactly that chain. The specification oracle
// costs O(depth²) (every node climbs its ancestors), so it checks the
// same shape at depth 1000.
func TestDifferentialDeepDocument(t *testing.T) {
	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	if err := store.Add(authz.InstanceLevel, mustAuth(t, `<<Public,*,*>,deep.xml://leaf,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(dir, store)
	req := core.Request{
		Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
		URI:       "deep.xml",
	}

	const depth = 10000
	mv, err := eng.ComputeView(req, deepChain(depth))
	if err != nil {
		t.Fatal(err)
	}
	var a strings.Builder
	if err := mv.WriteXML(&a, dom.WriteOptions{OmitDecl: true, OmitDocType: true}); err != nil {
		t.Fatal(err)
	}
	want := "<d>" + strings.Repeat("<c>", depth) + "<leaf>visible</leaf>" + strings.Repeat("</c>", depth) + "</d>"
	if out := a.String(); out != want {
		t.Fatalf("deep view is not the bare structural chain (%d bytes, want %d)", len(out), len(want))
	}
	if got := mv.Stats.Kept; got != depth+2 {
		t.Fatalf("kept %d nodes, want %d", got, depth+2)
	}

	assertPipelinesAgree(t, "deep", eng, req, deepChain(1000))
}
