package dom

import "math/bits"

// Edit is a copy of a document being edited, together with the edit's
// footprint: the elements whose attribute or child list changed and the
// roots of the subtrees inserted. Committing the copy (Normalize, then
// BuildArena, then Source) does per-node work only inside the footprint
// when the copy is checked Against a base whose Source is canonical,
// and copies the rest from the base as runs of its arrays and bytes;
// otherwise the footprint is the whole document and every node is
// built afresh, as a parse builds it.
//
// An Edit is made by EditCopy (update.ApplyEdit records the footprint
// as it applies a script) or by WholeEdit for a tree edited without a
// footprint. It is transient: no committed generation holds it, so the
// base it reads is released with it.
type Edit struct {
	doc  *Document
	from *Document // the document EditCopy copied, or nil
	slab []Node    // the copy's nodes, indexed by the base's preorder

	touched  []*Node
	inserted []*Node

	// Set by Against: the base's arena, canonical text and element
	// ranges. base == nil makes the edit whole-document.
	base     *Arena
	baseText string
	baseMap  *SourceMap

	runs  []run // clean subtrees BuildArena copied, in preorder
	built int   // nodes BuildArena wrote individually
}

// run is one clean subtree copied from the base: n nodes starting at
// base index old, placed at index new, whose character data occupies
// base bytes [bs, be).
type run struct {
	old, new, n int32
	bs, be      int
}

// EditCopy returns a deep copy of d to edit, with an empty footprint.
// The copy is numbered like d, so Node(i) is the copy of d's node i.
func (d *Document) EditCopy() *Edit {
	out, slab := d.CloneIndexed()
	return &Edit{doc: out, from: d, slab: slab}
}

// WholeEdit returns an Edit of d whose footprint is the whole document:
// committing it normalizes, defaults, validates, numbers and flattens
// every node. Edits made without a footprint (a merged PUT) commit so.
func WholeEdit(d *Document) *Edit { return &Edit{doc: d} }

// Doc returns the edited copy.
func (e *Edit) Doc() *Document { return e.doc }

// Len returns the number of nodes of the copied document.
func (e *Edit) Len() int { return len(e.slab) }

// Node returns the copy of the base node whose index is i.
func (e *Edit) Node(i int) *Node { return &e.slab[i] }

// Touch records that element n of the copy had its attribute or child
// list changed.
func (e *Edit) Touch(n *Node) { e.touched = append(e.touched, n) }

// Insert records n as the root of an inserted subtree and returns the
// subtree's node count. Its nodes are marked as new (Order -1) until
// BuildArena numbers them.
func (e *Edit) Insert(n *Node) int {
	e.inserted = append(e.inserted, n)
	return markNew(n)
}

// markNew marks the subtree at n as new and returns its node count.
func markNew(n *Node) int {
	n.Order = -1
	c := 1
	for _, a := range n.Attrs {
		a.Order = -1
		c++
	}
	for _, ch := range n.Children {
		c += markNew(ch)
	}
	return c
}

// Against makes the commit local to the footprint: base must be the
// canonical text of the document the copy was taken from (the text
// Source wrote, so it parses back to exactly that document) and m the
// element ranges recorded with it. An edit that was not made by
// EditCopy of a document with an arena stays whole-document. Against
// reports whether the commit is local.
func (e *Edit) Against(text string, m *SourceMap) bool {
	if e.from == nil || m == nil {
		return false
	}
	a := e.from.arena
	if a == nil || a.Len() != len(e.slab) || len(m.rel) != a.Len() {
		return false
	}
	e.base, e.baseText, e.baseMap = a, text, m
	return true
}

// Local reports whether the commit builds only the footprint.
func (e *Edit) Local() bool { return e.base != nil }

// Touched returns the attached elements whose attribute or child list
// the edit changed, once Normalize has run; nil for a whole-document
// edit.
func (e *Edit) Touched() []*Node { return e.touched }

// Inserted returns the roots of the attached inserted subtrees, once
// Normalize has run; a whole-document edit's one root is the document
// node.
func (e *Edit) Inserted() []*Node {
	if e.base == nil {
		return []*Node{e.doc.Node}
	}
	return e.inserted
}

// Built returns the number of nodes BuildArena wrote individually
// rather than copying them from the base: the whole document for a
// whole-document edit, the footprint, its text neighbours and its
// ancestors (with their attributes) for a local one.
func (e *Edit) Built() int { return e.built }

// Normalize rewrites the copy into the tree a parse of its
// serialization rebuilds (see Document.Normalize), touching only the
// footprint when the commit is local:
//
//   - an attribute the base had marked Defaulted is written out from
//     now on, so its mark is cleared and its element joins the
//     footprint;
//   - inserted subtrees are normalized whole and their strings copied
//     into storage of the document's own;
//   - a touched element's child list has its text runs merged and
//     whitespace-only runs dropped, and its attributes get valid UTF-8
//     and owned strings (set-attr values come from the script).
//
// Untouched nodes keep sharing the base's strings. The footprint is
// left holding only what is still attached to the document, each
// element once.
func (e *Edit) Normalize() {
	if e.base == nil {
		e.doc.Normalize()
		return
	}
	for w, word := range e.base.defaulted {
		for word != 0 {
			k := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if a := &e.slab[k]; a.Parent != nil {
				a.Defaulted = false
				e.Touch(a.Parent)
			}
		}
	}
	seen := NewBitmask(len(e.slab))
	touched := e.touched[:0]
	for _, t := range e.touched {
		if t.Order >= 0 && !seen.Get(t.Order) && e.attached(t) {
			seen.Set(t.Order)
			touched = append(touched, t)
		}
	}
	e.touched = touched
	inserted := e.inserted[:0]
	for _, r := range e.inserted {
		if e.attached(r) {
			inserted = append(inserted, r)
		}
	}
	e.inserted = inserted
	for _, r := range e.inserted {
		switch r.Type {
		case ElementNode:
			r.normalizeContent(true)
		case TextNode:
			r.Data = validUTF8(r.Data)
		}
	}
	for _, t := range e.touched {
		t.normalizeContent(false)
	}
	// A text root merged into its neighbour or dropped is detached now.
	inserted = e.inserted[:0]
	for _, r := range e.inserted {
		if r.Parent != nil {
			inserted = append(inserted, r)
		}
	}
	e.inserted = inserted
	ownStrings(func(f func(*Node)) {
		for _, r := range e.inserted {
			walkNodes(r, f)
		}
		for _, t := range e.touched {
			for _, a := range t.Attrs {
				f(a)
			}
		}
	})
}

// attached reports whether n is still reachable from the document node.
func (e *Edit) attached(n *Node) bool {
	for m := n; m != nil; m = m.Parent {
		if m == e.doc.Node {
			return true
		}
	}
	return false
}

// walkNodes calls f on n, its attributes and, recursively, its
// children, in preorder.
func walkNodes(n *Node, f func(*Node)) {
	f(n)
	for _, a := range n.Attrs {
		f(a)
	}
	for _, c := range n.Children {
		walkNodes(c, f)
	}
}
