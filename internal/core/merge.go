package core

import (
	"fmt"

	"xmlsec/internal/dom"
)

// WriteDeniedError reports a write-through-views edit that the
// requester is not authorized (or not able) to make.
type WriteDeniedError struct {
	// Reason describes the offending edit in terms of the original
	// document's paths.
	Reason string
}

func (e *WriteDeniedError) Error() string {
	return "core: write denied: " + e.Reason
}

func denyf(format string, args ...any) error {
	return &WriteDeniedError{Reason: fmt.Sprintf(format, args...)}
}

// MergeView implements write-through-views, the update semantics that
// extend the paper's view concept to the write action: the requester
// edits the *view* they were served, and the server merges their edits
// back into the original document, preserving everything the view hid.
//
// updated is the requester's edited document; it is compared against
// view (their read view of orig). Every edit maps to nodes of orig and
// requires writable(node):
//
//   - changing or deleting an attribute: the attribute node;
//   - adding an attribute, inserting an element, or editing character
//     data: the containing element;
//   - deleting an element: every element and attribute of its original
//     subtree (a denial anywhere below protects the content from
//     removal).
//
// Edits the requester could not have made knowingly are refused
// outright: adding an attribute that invisibly exists, editing the
// character data of an element whose text the view withheld, and
// restructuring the children of an element that has invisible element
// children. Because edits are diffed against the view, unreadable
// content can neither be observed, overwritten, nor confirmed through
// the write path.
//
// On success MergeView returns a fresh document (orig is not mutated)
// carrying orig's prolog and DOCTYPE.
//
// The view nodes are the original nodes and visibility is the mask, so
// provenance comes for free as the identity; the merger reads
// attributes, content and child lists of view elements through the
// mask so hidden parts of a shared node never count as "shown to the
// requester".
func MergeView(orig *dom.Document, view *View, updated *dom.Document, writable func(*dom.Node) bool) (*dom.Document, error) {
	newRoot := updated.DocumentElement()
	origRoot := orig.DocumentElement()
	if view.Empty() {
		return nil, denyf("the requester's view is empty")
	}
	viewRoot := view.Doc.DocumentElement()
	if newRoot == nil {
		return nil, denyf("deleting the document element requires deleting the document")
	}
	if newRoot.Name != viewRoot.Name {
		return nil, denyf("the document element cannot be renamed (%s -> %s)", viewRoot.Name, newRoot.Name)
	}
	if view.OriginOf(viewRoot) != origRoot {
		return nil, denyf("view does not originate from this document")
	}
	m := &merger{view: view, writable: writable}
	mergedRoot, err := m.element(origRoot, viewRoot, newRoot)
	if err != nil {
		return nil, err
	}
	out := dom.NewDocument()
	out.Version = orig.Version
	out.Encoding = orig.Encoding
	out.Standalone = orig.Standalone
	if orig.DocType != nil {
		dt := *orig.DocType
		out.DocType = &dt
	}
	// Preserve top-level comments and PIs from the original.
	for _, c := range orig.Node.Children {
		if c.Type == dom.ElementNode {
			out.Node.AppendChild(mergedRoot)
		} else {
			out.Node.AppendChild(c.Clone())
		}
	}
	if out.DocumentElement() == nil {
		out.Node.AppendChild(mergedRoot)
	}
	out.Renumber()
	return out, nil
}

type merger struct {
	view     *View
	writable func(*dom.Node) bool
}

// originOf maps a view node back to its original node (the identity on
// visible nodes).
func (m *merger) originOf(v *dom.Node) *dom.Node { return m.view.OriginOf(v) }

// attr returns the named attribute of view element v as the requester
// saw it: nil if the view withheld it.
func (m *merger) attr(v *dom.Node, name string) *dom.Node {
	if a := v.AttrNode(name); a != nil && m.view.Visible(a) {
		return a
	}
	return nil
}

// contentKey is the character-data fingerprint of view element v as the
// requester saw it.
func (m *merger) contentKey(v *dom.Node) string {
	return dom.ContentKeyMasked(v, m.view.Mask)
}

// kids returns the element children of view element v that the view
// actually showed.
func (m *merger) kids(v *dom.Node) []*dom.Node {
	all := v.ChildElements()
	vis := all[:0:0]
	for _, k := range all {
		if m.view.Visible(k) {
			vis = append(vis, k)
		}
	}
	return vis
}

// element merges one aligned (orig, view, new) element triple.
func (m *merger) element(o, v, n *dom.Node) (*dom.Node, error) {
	out := dom.NewElement(o.Name)

	if err := m.attrs(o, v, n, out); err != nil {
		return nil, err
	}

	// Character data: detect an edit against the view.
	contentEdited := m.contentKey(v) != dom.ContentKey(n)
	if contentEdited {
		if m.contentKey(v) != dom.ContentKey(o) {
			return nil, denyf("content of %s is not fully readable and cannot be edited", o.Path())
		}
		if !m.writable(o) {
			return nil, denyf("no write authority on %s (content edit)", o.Path())
		}
	}

	vKids := m.kids(v)
	nKids := n.ChildElements()
	oKids := o.ChildElements()
	mv, mn := dom.AlignByName(vKids, nKids)

	// Which orig children are visible (present in the view)?
	visIdx := make(map[*dom.Node]int) // orig child -> index into vKids
	for i, vk := range vKids {
		ok := m.originOf(vk)
		if ok == nil || ok.Parent != o {
			return nil, denyf("view node %s does not originate from %s", vk.Path(), o.Path())
		}
		visIdx[ok] = i
	}

	if contentEdited {
		// Restructuring around invisible children is not permitted:
		// with edited content we rebuild from the new document's child
		// order, which only works when the view showed everything.
		if len(visIdx) != len(oKids) {
			return nil, denyf("%s has children the view hides; its content cannot be edited", o.Path())
		}
		for _, c := range n.Children {
			switch c.Type {
			case dom.ElementNode:
				// handled below by the common alignment pass
			default:
				out.AppendChild(c.Clone())
			}
		}
	} else {
		// Content preserved from the original.
		for _, c := range o.Children {
			if c.Type != dom.ElementNode {
				out.AppendChild(c.Clone())
			}
		}
	}

	// Merge element children: walk orig children in order, keeping
	// invisible ones, merging matched ones, dropping deletions; queue
	// insertions after the view sibling they follow in the new
	// document.
	inserted := make(map[int][]*dom.Node) // view-kid index -> new kids inserted after it
	var leading []*dom.Node               // insertions before every matched kid
	lastMatched := -1
	for j, nk := range nKids {
		if mn[j] >= 0 {
			lastMatched = mn[j]
			continue
		}
		if !m.writable(o) {
			return nil, denyf("no write authority on %s (inserting <%s>)", o.Path(), nk.Name)
		}
		if lastMatched < 0 {
			leading = append(leading, nk)
		} else {
			inserted[lastMatched] = append(inserted[lastMatched], nk)
		}
	}
	for _, nk := range leading {
		out.AppendChild(nk.Clone())
	}
	for _, ok := range oKids {
		vi, visible := visIdx[ok]
		if !visible {
			// Hidden from the requester: preserved untouched.
			out.AppendChild(ok.Clone())
			continue
		}
		nj := mv[vi]
		if nj < 0 {
			// Deleted in the update: requires write over the whole
			// original subtree.
			if err := m.deletable(ok); err != nil {
				return nil, err
			}
		} else {
			merged, err := m.element(ok, vKids[vi], nKids[nj])
			if err != nil {
				return nil, err
			}
			out.AppendChild(merged)
		}
		for _, nk := range inserted[vi] {
			out.AppendChild(nk.Clone())
		}
	}
	return out, nil
}

// attrs merges the attribute lists of one element triple into out.
func (m *merger) attrs(o, v, n, out *dom.Node) error {
	for _, oa := range o.Attrs {
		va := m.attr(v, oa.Name)
		if va == nil {
			// Invisible attribute: preserved.
			out.SetAttr(oa.Name, oa.Data)
			continue
		}
		na := n.AttrNode(oa.Name)
		switch {
		case na == nil: // deleted
			if !m.writable(oa) {
				return denyf("no write authority on %s (delete)", oa.Path())
			}
		case na.Data != va.Data: // modified
			if !m.writable(oa) {
				return denyf("no write authority on %s (set to %q)", oa.Path(), na.Data)
			}
			out.SetAttr(oa.Name, na.Data)
		default:
			out.SetAttr(oa.Name, oa.Data)
		}
	}
	for _, na := range n.Attrs {
		if m.attr(v, na.Name) != nil {
			continue // handled above
		}
		if o.AttrNode(na.Name) != nil {
			return denyf("attribute @%s on %s exists but is not readable; it cannot be overwritten", na.Name, o.Path())
		}
		if !m.writable(o) {
			return denyf("no write authority on %s (adding @%s)", o.Path(), na.Name)
		}
		out.SetAttr(na.Name, na.Data)
	}
	return nil
}

// deletable requires write authority over every element and attribute
// of the original subtree rooted at n.
func (m *merger) deletable(n *dom.Node) error {
	if !m.writable(n) {
		return denyf("no write authority on %s (delete)", n.Path())
	}
	for _, a := range n.Attrs {
		if !m.writable(a) {
			return denyf("no write authority on %s (delete)", a.Path())
		}
	}
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			if err := m.deletable(c); err != nil {
				return err
			}
		}
	}
	return nil
}
