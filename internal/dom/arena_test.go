package dom

import (
	"strings"
	"sync"
	"testing"
)

// serializeBothWays renders the document through the arena serializer
// and through the pointer-tree serializer and fails on any byte
// difference — the parity every arena consumer depends on. The arena
// is left in place afterwards.
func serializeBothWays(t *testing.T, doc *Document, indent string) string {
	t.Helper()
	if doc.ArenaIfBuilt() == nil {
		t.Fatal("document has no arena to compare")
	}
	viaArena := doc.StringIndent(indent)
	ar := doc.arena
	doc.DropArena()
	viaTree := doc.StringIndent(indent)
	doc.arena = ar
	if viaArena != viaTree {
		t.Fatalf("arena and tree serializations differ (indent %q):\n--- arena ---\n%s\n--- tree ---\n%s",
			indent, viaArena, viaTree)
	}
	return viaArena
}

// TestArenaAttributeOnlyElement covers elements whose only content is
// attributes: the attribute range must be populated while the child
// links stay empty, and the element must serialize self-closed.
func TestArenaAttributeOnlyElement(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	root.SetAttr("x", "1")
	root.SetAttr("y", "two & <three>")
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	i := ar.DocumentElement()
	if i < 0 {
		t.Fatal("no document element in arena")
	}
	start, end := ar.Attrs(i)
	if end-start != 2 {
		t.Fatalf("attr range [%d,%d), want 2 attributes", start, end)
	}
	if ar.FirstChild(i) != -1 {
		t.Errorf("attribute-only element has firstChild %d, want -1", ar.FirstChild(i))
	}
	if got := ar.Name(start); got != "x" {
		t.Errorf("first attr name %q, want x", got)
	}
	if got := string(ar.RawData(start + 1)); got != "two & <three>" {
		t.Errorf("second attr raw value %q", got)
	}
	out := serializeBothWays(t, doc, "")
	if !strings.Contains(out, `<a x="1" y="two &amp; &lt;three>"/>`) {
		t.Errorf("unexpected serialization: %s", out)
	}
}

// TestArenaMixedContentRuns covers runs of CDATA, comments and
// processing instructions between text — every non-element kind in one
// parent — in both flat and pretty serializations, including a CDATA
// section whose data contains "]]>" and so must be split.
func TestArenaMixedContentRuns(t *testing.T) {
	doc := NewDocument()
	doc.Node.AppendChild(NewComment(" prolog "))
	doc.Node.AppendChild(NewProcInst("style", `href="x.css"`))
	root := NewElement("r")
	doc.SetDocumentElement(root)
	root.AppendChild(NewText("t1 < t2"))
	root.AppendChild(NewCDATA("raw <markup/> here"))
	root.AppendChild(NewComment("mid"))
	root.AppendChild(NewProcInst("target", ""))
	root.AppendChild(NewCDATA("ends with ]]> inside"))
	root.AppendChild(NewText("tail"))
	doc.Renumber()
	doc.BuildArena()

	flat := serializeBothWays(t, doc, "")
	serializeBothWays(t, doc, "  ")
	for _, want := range []string{
		"<!-- prolog -->",
		`<?style href="x.css"?>`,
		"t1 &lt; t2",
		"<![CDATA[raw <markup/> here]]>",
		"<?target?>",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("flat serialization missing %q:\n%s", want, flat)
		}
	}
	if strings.Contains(flat, "<![CDATA[ends with ]]> inside]]>") {
		t.Errorf("CDATA ]]-guard not applied:\n%s", flat)
	}
	i := doc.arena.DocumentElement()
	if k := doc.arena.Kind(doc.arena.FirstChild(i)); k != TextNode {
		t.Errorf("first child kind %v, want text", k)
	}
}

// TestArenaDefaultedSurvives pins that the Defaulted bit on attribute
// nodes (DTD attribute defaulting) survives the trip into the arena
// and back out through Materialize.
func TestArenaDefaultedSurvives(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	root.SetAttr("explicit", "1")
	def := NewAttr("supplied", "dflt")
	def.Defaulted = true
	root.SetAttrNode(def)
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	start, end := ar.Attrs(ar.DocumentElement())
	if end-start != 2 {
		t.Fatalf("attr range [%d,%d), want 2", start, end)
	}
	if ar.Defaulted(start) {
		t.Error("explicit attribute marked defaulted in arena")
	}
	if !ar.Defaulted(start + 1) {
		t.Error("defaulted attribute lost its bit in arena")
	}
	m := ar.Materialize()
	attrs := m.Node.Children[0].Attrs
	if len(attrs) != 2 || attrs[0].Defaulted || !attrs[1].Defaulted {
		t.Errorf("Materialize lost Defaulted bits: %+v", attrs)
	}
}

// TestArenaDeepChain builds the 10000-deep element chain of the PR 2
// differential suite and checks the arena flattening and both
// serializers survive it and agree.
func TestArenaDeepChain(t *testing.T) {
	const depth = 10000
	doc := NewDocument()
	root := NewElement("d")
	doc.SetDocumentElement(root)
	cur := root
	for i := 0; i < depth; i++ {
		cur.AppendChild(NewText("x"))
		next := NewElement("c")
		cur.AppendChild(next)
		cur = next
	}
	cur.AppendChild(NewText("leaf"))
	doc.Renumber()
	ar := doc.BuildArena()

	if ar.Len() != doc.NodeCount() {
		t.Fatalf("arena has %d slots, document %d nodes", ar.Len(), doc.NodeCount())
	}
	serializeBothWays(t, doc, "")
	serializeBothWays(t, doc, "  ")

	// Walk the child links to the bottom: the chain must be intact.
	seen := 0
	for i := ar.DocumentElement(); i >= 0; {
		seen++
		next := int32(-1)
		for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) == ElementNode {
				next = c
			}
		}
		i = next
	}
	if seen != depth+1 {
		t.Fatalf("element chain length %d, want %d", seen, depth+1)
	}
}

// TestArenaConcurrentReaders pins the build-before-share contract
// under -race: once BuildArena has run, any number of goroutines may
// sweep and serialize the shared arena concurrently, each through its
// own pooled buffer.
func TestArenaConcurrentReaders(t *testing.T) {
	doc := NewDocument()
	root := NewElement("r")
	doc.SetDocumentElement(root)
	for i := 0; i < 50; i++ {
		e := NewElement("e")
		e.SetAttr("k", "v & w")
		e.AppendChild(NewText("some <text>"))
		root.AppendChild(e)
	}
	doc.Renumber()
	ar := doc.BuildArena()
	opts := WriteOptions{Indent: "  "}
	var wb strings.Builder
	if err := doc.Write(&wb, opts); err != nil {
		t.Fatal(err)
	}
	want := wb.String()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				b := GetBuffer(ar.SizeHint())
				if err := doc.Write(b, opts); err != nil {
					t.Error(err)
				} else if b.String() != want {
					t.Error("concurrent serialization diverged")
				}
				PutBuffer(b)
				for i := int32(0); i < int32(ar.Len()); i++ {
					_ = ar.Kind(i)
					_ = ar.Name(i)
					_ = ar.RawData(i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestArenaInvalidation pins the lifecycle: Renumber discards the
// arena (its indices are for the old numbering) and BuildArena
// installs a fresh one.
func TestArenaInvalidation(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	doc.SetDocumentElement(root)
	doc.Renumber()
	doc.BuildArena()
	if doc.ArenaIfBuilt() == nil {
		t.Fatal("BuildArena left no arena")
	}
	root.AppendChild(NewElement("b"))
	doc.Renumber()
	if doc.ArenaIfBuilt() != nil {
		t.Fatal("Renumber kept a stale arena")
	}
	ar := doc.BuildArena()
	if ar.Len() != doc.NodeCount() {
		t.Fatalf("rebuilt arena has %d slots, want %d", ar.Len(), doc.NodeCount())
	}
}

// TestArenaQueryHelpers covers the accessors the arena-native XPath
// evaluator leans on: symbol lookup, subtree ranges and string-values.
func TestArenaQueryHelpers(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	b := NewElement("b")
	b.SetAttr("k", "v")
	b.AppendChild(NewText("one"))
	c := NewElement("c")
	c.AppendChild(NewCDATA("two"))
	c.AppendChild(NewComment("not text"))
	b.AppendChild(c)
	root.AppendChild(b)
	root.AppendChild(NewElement("d"))
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	if _, ok := ar.LookupSym("b"); !ok {
		t.Error("LookupSym(b) missed an interned name")
	}
	if s, ok := ar.LookupSym("zzz"); ok {
		t.Errorf("LookupSym(zzz) = %d, want a miss", s)
	}
	// Symbol identity: every node named "b" carries the looked-up sym.
	bSym, _ := ar.LookupSym("b")
	bIdx := int32(b.Order)
	if ar.NameSym(bIdx) != bSym {
		t.Errorf("NameSym(%d) = %d, LookupSym says %d", bIdx, ar.NameSym(bIdx), bSym)
	}

	// Subtree ranges: <b> spans itself, its attribute, both children
	// and the grandchildren — everything up to its next sibling <d>.
	dIdx := int32(root.Children[1].Order)
	if got := ar.SubtreeEnd(bIdx); got != dIdx {
		t.Errorf("SubtreeEnd(b) = %d, want %d (the <d> sibling)", got, dIdx)
	}
	// The document subtree is the whole arena; an attribute's is itself.
	if got := ar.SubtreeEnd(0); got != int32(ar.Len()) {
		t.Errorf("SubtreeEnd(document) = %d, want %d", got, ar.Len())
	}
	attr := bIdx + 1
	if ar.Kind(attr) != AttributeNode {
		t.Fatalf("index %d is %v, want the k attribute", attr, ar.Kind(attr))
	}
	if got := ar.SubtreeEnd(attr); got != attr+1 {
		t.Errorf("SubtreeEnd(attr) = %d, want %d", got, attr+1)
	}
	// The last node's subtree runs to the end of the arena.
	last := int32(ar.Len() - 1)
	if got := ar.SubtreeEnd(last); got != int32(ar.Len()) {
		t.Errorf("SubtreeEnd(last) = %d, want %d", got, ar.Len())
	}

	// String-values: text and CDATA concatenate, comments and attribute
	// values stay out — exactly Node.Text.
	if got, want := ar.TextContent(bIdx), b.Text(); got != want {
		t.Errorf("TextContent(b) = %q, tree says %q", got, want)
	}
	if got := ar.TextContent(bIdx); got != "onetwo" {
		t.Errorf("TextContent(b) = %q, want onetwo", got)
	}
	if got := ar.TextContent(0); got != "onetwo" {
		t.Errorf("TextContent(document) = %q, want onetwo", got)
	}
}

// TestArenaBufferSizedOnce: BuildArena computes the exact size of the
// shared byte buffer before filling it — raw data, escaped forms that
// differ from it, rendered CDATA sections — so the buffer is allocated
// once and never regrown, and the serialization stays byte-identical.
func TestArenaBufferSizedOnce(t *testing.T) {
	d := NewDocument()
	root := NewElement("r")
	root.SetAttr("plain", "value")
	root.SetAttr("esc", "a<b & \"c\"\t\n\r")
	root.SetAttr("bad", "\xff\xfe")
	root.AppendChild(NewText("plain text"))
	root.AppendChild(NewText("x < y && z > w\r"))
	root.AppendChild(NewText("\xc3("))
	root.AppendChild(NewCDATA("one ]]> two ]]]]>>"))
	root.AppendChild(NewComment(" c "))
	root.AppendChild(NewProcInst("pi", "data"))
	root.AppendChild(NewElement("empty"))
	d.SetDocumentElement(root)
	want := d.String() // pointer-tree writer: no arena yet
	a := d.BuildArena()
	if len(a.bytes) != cap(a.bytes) {
		t.Errorf("arena buffer: len %d, cap %d; want an exactly sized buffer", len(a.bytes), cap(a.bytes))
	}
	if got := d.String(); got != want {
		t.Errorf("arena serialization differs:\n got %q\nwant %q", got, want)
	}
}
