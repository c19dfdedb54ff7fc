package xmlparse_test

import (
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// checkArenaStructure walks the pointer tree and asserts the arena is
// a faithful flattening: same kinds, names, character data, parent
// links and attribute ranges at the tree's Renumber indices.
func checkArenaStructure(t *testing.T, doc *dom.Document, ar *dom.Arena) {
	t.Helper()
	count := 0
	var walk func(n *dom.Node, parent int32)
	walk = func(n *dom.Node, parent int32) {
		i := int32(n.Order)
		count++
		if ar.Kind(i) != n.Type {
			t.Fatalf("node %d: arena kind %v, tree type %v", i, ar.Kind(i), n.Type)
		}
		if ar.Name(i) != n.Name {
			t.Fatalf("node %d: arena name %q, tree name %q", i, ar.Name(i), n.Name)
		}
		if string(ar.RawData(i)) != n.Data {
			t.Fatalf("node %d: arena data %q, tree data %q", i, ar.RawData(i), n.Data)
		}
		if ar.Parent(i) != parent {
			t.Fatalf("node %d: arena parent %d, tree parent %d", i, ar.Parent(i), parent)
		}
		if n.Type == dom.AttributeNode && ar.Defaulted(i) != n.Defaulted {
			t.Fatalf("attr %d: arena defaulted %v, tree %v", i, ar.Defaulted(i), n.Defaulted)
		}
		start, end := ar.Attrs(i)
		if int(end-start) != len(n.Attrs) {
			t.Fatalf("node %d: arena attr range [%d,%d), tree has %d attrs", i, start, end, len(n.Attrs))
		}
		for k, at := range n.Attrs {
			if int32(at.Order) != start+int32(k) {
				t.Fatalf("attr %d of node %d: order %d, arena slot %d", k, i, at.Order, start+int32(k))
			}
			walk(at, i)
		}
		for _, c := range n.Children {
			walk(c, i)
		}
	}
	walk(doc.Node, -1)
	if count != ar.Len() {
		t.Fatalf("tree has %d nodes, arena %d", count, ar.Len())
	}
}

// fuzzPolicy derives a small deterministic authorization set from the
// document's element names and the fuzzed seed: a mix of grants and
// denials, local and recursive, on //name paths. Names the tuple
// grammar rejects are skipped — the interesting part is what the
// engine does with whatever parses.
func fuzzPolicy(doc *dom.Document, seed uint8) []*authz.Authorization {
	var names []string
	seen := map[string]bool{}
	var collect func(n *dom.Node)
	collect = func(n *dom.Node) {
		if n.Type == dom.ElementNode && !seen[n.Name] {
			seen[n.Name] = true
			names = append(names, n.Name)
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(doc.Node)
	if len(names) == 0 {
		return nil
	}
	signs := []string{"+", "-"}
	types := []string{"L", "R", "LW", "RW"}
	var auths []*authz.Authorization
	for k := 0; k < 3; k++ {
		name := names[(int(seed)+k)%len(names)]
		tuple := fmt.Sprintf("<<Public,*,*>,doc.xml://%s,read,%s,%s>",
			name, signs[(int(seed)>>uint(k))%2], types[(int(seed)+3*k)%4])
		a, err := authz.Parse(tuple)
		if err != nil {
			continue
		}
		auths = append(auths, a)
	}
	return auths
}

// TestArenaDTDDefaultedAttr parses a document whose DTD supplies an
// attribute default and checks the Defaulted bit reaches the arena:
// update merging and serialization policy both depend on telling
// supplied attributes from authored ones.
func TestArenaDTDDefaultedAttr(t *testing.T) {
	src := `<!DOCTYPE a [<!ELEMENT a (b)><!ELEMENT b EMPTY>` +
		`<!ATTLIST b kind CDATA "plain" id CDATA #IMPLIED>]><a><b id="7"/></a>`
	res, err := xmlparse.Parse(src, xmlparse.Options{ApplyDefaults: true})
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Arena
	var b int32 = -1
	for i := int32(0); i < int32(ar.Len()); i++ {
		if ar.Kind(i) == dom.ElementNode && ar.Name(i) == "b" {
			b = i
		}
	}
	if b < 0 {
		t.Fatal("element b not in arena")
	}
	start, end := ar.Attrs(b)
	found := false
	for at := start; at < end; at++ {
		switch ar.Name(at) {
		case "kind":
			found = true
			if !ar.Defaulted(at) {
				t.Error("DTD-supplied attribute not marked defaulted in arena")
			}
			if got := string(ar.RawData(at)); got != "plain" {
				t.Errorf("defaulted value %q, want plain", got)
			}
		case "id":
			if ar.Defaulted(at) {
				t.Error("authored attribute marked defaulted in arena")
			}
		}
	}
	if !found {
		t.Fatal("defaulted attribute missing from arena")
	}
	checkArenaStructure(t, res.Doc, ar)
}

// FuzzArenaParity is the arena/tree differential: for any input the
// parser accepts, the struct-of-arrays arena must mirror the pointer
// tree node for node, the Materialize adapter must serialize to the
// same bytes as the original tree, and the full label→mask→unparse
// cycle over the arena must be byte-identical, under a seed-derived
// policy, to the specification oracle: the per-node definition
// (NaiveLabel, tree XPath, no propagation) and PruneDoc on an
// arena-less copy.
func FuzzArenaParity(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1"><b>t</b><!--c--><?p d?><![CDATA[e]]></a>`,
		`<r><a p="1"><b>t1</b><c q="2">t2<d/></c></a><e>t3</e></r>`,
		`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a x CDATA "dflt">]><a><a x="set"/></a>`,
		`<a>x]]&gt;y&amp;&lt;</a>`,
		strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40),
	}
	for i, s := range seeds {
		f.Add(s, uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, input string, polSeed uint8) {
		res, err := xmlparse.Parse(input, xmlparse.Options{
			KeepWhitespace: true, KeepComments: true, ApplyDefaults: true,
		})
		if err != nil {
			return // rejection is fine; panics are not
		}
		if res.Arena == nil {
			t.Fatal("parser returned no arena")
		}
		if res.Doc.ArenaIfBuilt() != res.Arena {
			t.Fatal("Result.Arena is not the document's arena")
		}
		checkArenaStructure(t, res.Doc, res.Arena)

		// The adapter direction: materializing the arena back into a
		// pointer tree must reproduce the document exactly.
		if got, want := res.Arena.Materialize().String(), res.Doc.String(); got != want {
			t.Fatalf("Materialize round-trip diverged:\narena: %q\ntree:  %q", got, want)
		}

		// Full-cycle differential under a derived policy: the pipeline
		// labels and serializes over the arena; the oracle labels a copy
		// (copies carry no arena) node by node and prunes it.
		dir := subjects.NewDirectory()
		if err := dir.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		store := authz.NewStore()
		for _, a := range fuzzPolicy(res.Doc, polSeed) {
			if err := store.Add(authz.InstanceLevel, a); err != nil {
				t.Fatal(err)
			}
		}
		eng := core.NewEngine(dir, store)
		req := core.Request{
			Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
			URI:       "doc.xml",
		}
		mv, err := eng.ComputeView(req, res.Doc)
		if err != nil {
			t.Fatalf("view pipeline: %v", err)
		}
		spec := res.Doc.Clone()
		lb, err := eng.NaiveLabel(req, spec, true)
		if err != nil {
			t.Fatalf("specification oracle: %v", err)
		}
		want := core.Stats{Nodes: spec.CountNodes()}
		want.Plus, want.Minus, want.Eps = lb.Count()
		nonEmpty := core.PruneDoc(spec, lb, eng.PolicyFor(req.URI))
		want.Kept = spec.CountNodes()
		if mv.Empty() == nonEmpty {
			t.Fatalf("emptiness disagrees: pipeline empty=%v, spec empty=%v", mv.Empty(), !nonEmpty)
		}
		got := mv.Stats
		got.AuthsInstance, got.AuthsSchema = 0, 0
		if got != want {
			t.Fatalf("stats disagree: pipeline %+v, spec %+v", got, want)
		}
		for _, opts := range []dom.WriteOptions{
			{}, {Indent: "  "}, {OmitDecl: true, OmitDocType: true}, {Indent: "\t", OmitDecl: true},
		} {
			var a, b strings.Builder
			if err := mv.WriteXML(&a, opts); err != nil {
				t.Fatalf("arena serialization: %v", err)
			}
			if err := spec.Write(&b, opts); err != nil {
				t.Fatalf("spec serialization: %v", err)
			}
			if a.String() != b.String() {
				t.Fatalf("masked serializations differ (opts %+v):\n--- arena ---\n%s\n--- spec ---\n%s",
					opts, a.String(), b.String())
			}
		}
	})
}
