package dom

import (
	"reflect"
	"testing"
)

func elems(names ...string) []*Node {
	out := make([]*Node, len(names))
	for i, n := range names {
		out[i] = NewElement(n)
	}
	return out
}

// TestAlignByNameKeepsStableSiblings: an insertion in the middle leaves
// every existing sibling aligned, and a same-name run aligns in order,
// so dropping one of three <i> leaves exactly one unmatched.
func TestAlignByNameKeepsStableSiblings(t *testing.T) {
	ma, mb := AlignByName(elems("x", "y", "z"), elems("x", "w", "y", "z"))
	if want := []int{0, 2, 3}; !reflect.DeepEqual(ma, want) {
		t.Errorf("old side = %v, want %v", ma, want)
	}
	if want := []int{0, -1, 1, 2}; !reflect.DeepEqual(mb, want) {
		t.Errorf("new side = %v, want %v", mb, want)
	}

	ma, mb = AlignByName(elems("i", "i", "i"), elems("i", "i"))
	unmatched := 0
	for _, j := range ma {
		if j < 0 {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Errorf("old side = %v, want exactly one unmatched", ma)
	}
	for _, i := range mb {
		if i < 0 {
			t.Errorf("new side = %v, want every element matched", mb)
		}
	}

	// A rename is a delete plus an insert, never a match.
	ma, mb = AlignByName(elems("a"), elems("b"))
	if ma[0] != -1 || mb[0] != -1 {
		t.Errorf("renamed element matched: %v %v", ma, mb)
	}
}

// TestContentKeyCharacterData: the key covers text, CDATA, comments and
// PIs (by target and data) in order, ignores element children, and the
// masked variant sees only mask-visible children.
func TestContentKeyCharacterData(t *testing.T) {
	build := func(kids ...*Node) *Node {
		e := NewElement("e")
		for _, k := range kids {
			e.AppendChild(k)
		}
		return e
	}
	base := build(NewText("t"), NewComment("c"), NewProcInst("p", "d"), NewElement("child"))
	same := build(NewText("t"), NewComment("c"), NewProcInst("p", "d"))
	if ContentKey(base) != ContentKey(same) {
		t.Error("element children changed the content key")
	}
	for name, other := range map[string]*Node{
		"text":      build(NewText("u"), NewComment("c"), NewProcInst("p", "d")),
		"cdata":     build(NewCDATA("t"), NewComment("c"), NewProcInst("p", "d")),
		"comment":   build(NewText("t"), NewComment("x"), NewProcInst("p", "d")),
		"pi target": build(NewText("t"), NewComment("c"), NewProcInst("q", "d")),
		"pi data":   build(NewText("t"), NewComment("c"), NewProcInst("p", "x")),
		"order":     build(NewComment("c"), NewText("t"), NewProcInst("p", "d")),
	} {
		if ContentKey(base) == ContentKey(other) {
			t.Errorf("%s edit not detected", name)
		}
	}

	doc := NewDocument()
	doc.SetDocumentElement(base)
	doc.Renumber()
	mask := NewBitmask(doc.NodeCount())
	mask.Set(base.Children[0].Order) // only the text is visible
	if got, want := ContentKeyMasked(base, mask), ContentKey(build(NewText("t"))); got != want {
		t.Errorf("masked key %q, want %q", got, want)
	}
}
