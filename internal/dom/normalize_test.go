package dom

import (
	"strings"
	"testing"
	"unsafe"
)

// TestCloneIndexedSlab: a copy's nodes sit in one preorder slab, so
// slab[i] is the copy of the node with index i, and its lists are
// capped at their length, so an edit of one list cannot overwrite a
// neighbour's.
func TestCloneIndexedSlab(t *testing.T) {
	doc, _, _, _ := buildSample()
	c, nodes := doc.CloneIndexed()
	if len(nodes) != doc.NodeCount() || c.NodeCount() != doc.NodeCount() {
		t.Fatalf("slab of %d nodes, copy numbered %d, source has %d", len(nodes), c.NodeCount(), doc.NodeCount())
	}
	orig := make([]*Node, doc.NodeCount())
	doc.Walk(func(n *Node) bool { orig[n.Order] = n; return true })
	c.Walk(func(n *Node) bool {
		if &nodes[n.Order] != n {
			t.Errorf("copy node %s with index %d is not slab[%d]", n.Path(), n.Order, n.Order)
		}
		if o := orig[n.Order]; o.Type != n.Type || o.Name != n.Name || o.Data != n.Data {
			t.Errorf("slab[%d] copies %s, want %s", n.Order, n.Path(), o.Path())
		}
		if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
			t.Errorf("%s: lists not capped at their length", n.Path())
		}
		return true
	})
	root := c.DocumentElement()
	root.AppendChild(NewElement("added"))
	if c.String() == doc.String() || strings.Contains(doc.String(), "added") {
		t.Error("appending to the copy's list did not stay in the copy")
	}
}

// TestCloneMaskedWithoutDocumentNode: a masked copy is sized by the
// mask's count; the document node is copied even when the mask leaves
// it out, and the copy is numbered densely.
func TestCloneMaskedWithoutDocumentNode(t *testing.T) {
	doc, a, _, _ := buildSample()
	mask := NewBitmask(doc.NodeCount())
	mask.Set(a.Order)
	for _, at := range a.Attrs {
		mask.Set(at.Order)
	}
	c := doc.CloneMasked(mask)
	if got, want := c.NodeCount(), 2+len(a.Attrs); got != want {
		t.Fatalf("masked copy has %d nodes, want %d", got, want)
	}
	i := 0
	c.Walk(func(n *Node) bool {
		if n.Order != i {
			t.Errorf("%s has index %d, want %d", n.Path(), n.Order, i)
		}
		i++
		return true
	})
}

// TestNormalizeMatchesTheParserRules: adjacent text merges, a run that
// ends up whitespace-only goes, invalid UTF-8 becomes U+FFFD per byte,
// and Defaulted marks are cleared.
func TestNormalizeMatchesTheParserRules(t *testing.T) {
	d := NewDocument()
	r := NewElement("r")
	r.SetAttr("v", "a\xffb").Defaulted = true
	r.AppendChild(NewText("one "))
	r.AppendChild(NewText(" two"))
	r.AppendChild(NewElement("e"))
	r.AppendChild(NewText(" "))
	r.AppendChild(NewText("\t"))
	r.AppendChild(NewCDATA(" "))
	r.AppendChild(NewText(""))
	r.AppendChild(NewText("\xc3"))
	r.AppendChild(NewText("\xa9"))
	d.SetDocumentElement(r)
	d.Normalize()
	var got []string
	for _, c := range r.Children {
		got = append(got, c.Type.String()+":"+c.Data)
	}
	want := []string{"text:one  two", "element:", "cdata: ", "text:��"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("children %q, want %q", got, want)
	}
	if at := r.Attrs[0]; at.Data != "a�b" || at.Defaulted {
		t.Errorf("attribute %q defaulted=%v, want %q and not defaulted", at.Data, at.Defaulted, "a�b")
	}
}

// TestSourceStringOmitsDefaults: the stored text of a document leaves
// out the attributes defaulting supplied, and fits the buffer sized
// from the prolog and the arena's size hint, so it is never regrown.
func TestSourceStringOmitsDefaults(t *testing.T) {
	d := NewDocument()
	d.DocType = &DocType{Name: "r", SystemID: "r.dtd", InternalSubset: `<!ATTLIST r d CDATA "x">`}
	r := NewElement("r")
	r.SetAttr("a", "1")
	r.SetAttr("d", "x").Defaulted = true
	r.AppendChild(NewText("t & u"))
	d.SetDocumentElement(r)
	want := "<?xml version=\"1.0\"?>\n<!DOCTYPE r SYSTEM \"r.dtd\" [<!ATTLIST r d CDATA \"x\">]>\n<r a=\"1\">t &amp; u</r>"
	if got := d.SourceString(); got != want {
		t.Errorf("SourceString = %q, want %q", got, want)
	}
	if bound := d.prologLen() + d.Arena().SizeHint(); len(want) > bound {
		t.Errorf("text of %d bytes outgrows the %d-byte buffer SourceString sizes", len(want), bound)
	}
}

// TestNormalizeOwnsItsStrings: after Normalize no string of the
// document points into the texts its nodes were taken from, so a
// committed edit does not keep an earlier source or a request body
// alive.
func TestNormalizeOwnsItsStrings(t *testing.T) {
	text := strings.Repeat("x", 64) + "rvalue" + "tail"
	inText := func(s string) bool {
		if s == "" {
			return false
		}
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
		return p >= lo && p < lo+uintptr(len(text))
	}
	d := NewDocument()
	d.DocType = &DocType{Name: text[64:65], SystemID: text[:8]}
	r := NewElement(text[64:65])
	r.SetAttr(text[65:70], text[65:70])
	r.AppendChild(NewText(text[70:]))
	d.SetDocumentElement(r)
	d.Normalize()
	d.Walk(func(n *Node) bool {
		if inText(n.Name) || inText(n.Data) {
			t.Errorf("%s still points into the source text", n.Path())
		}
		return true
	})
	if inText(d.DocType.Name) || inText(d.DocType.SystemID) {
		t.Error("DOCTYPE still points into the source text")
	}
	if got := d.String(); !strings.Contains(got, `<r value="value">tail</r>`) {
		t.Errorf("content changed: %s", got)
	}
}
