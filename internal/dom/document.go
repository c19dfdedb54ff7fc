package dom

import "sync/atomic"

// DocType records the document type declaration of a document: its name
// and external identifiers. The parsed DTD itself is represented by the
// dtd package; xmlparse returns it alongside the document.
type DocType struct {
	// Name is the declared document element name.
	Name string
	// PublicID and SystemID are the external identifiers, if any.
	PublicID string
	// SystemID is the system literal of the external subset, if any.
	SystemID string
	// InternalSubset is the verbatim text between '[' and ']' of the
	// DOCTYPE declaration, preserved for re-serialization.
	InternalSubset string
}

// Document is the root of a DOM tree. Its node has Type DocumentNode and
// its children are the top-level comments, processing instructions, and
// the single document element.
type Document struct {
	// Node is the document node; Node.Children holds the prolog items
	// and the document element.
	Node *Node

	// XMLDecl preserves the XML declaration attributes, if present.
	Version    string
	Encoding   string
	Standalone string // "", "yes", or "no"

	// DocType is the document type declaration, or nil.
	DocType *DocType

	// nodeCount is the number of nodes assigned by the last Renumber;
	// zero means the document has never been renumbered.
	nodeCount int

	// arena is the struct-of-arrays representation of the document,
	// built by BuildArena (the parser does this at parse time) and
	// discarded by Renumber: an arena is only meaningful for the
	// numbering generation it was built from. Like the numbering
	// itself, the arena must be built before the document is shared
	// between goroutines; afterwards any number of readers may use it
	// concurrently.
	arena *Arena

	// retired marks a document a newer generation has replaced; see
	// Retire.
	retired atomic.Bool
}

// Retire marks the document as superseded by a newer generation. Caches
// keyed by document (the node-set index) stop admitting it, so readers
// still holding it cannot pin it past the commit that replaced it.
func (d *Document) Retire() { d.retired.Store(true) }

// Retired reports whether Retire was called.
func (d *Document) Retired() bool { return d.retired.Load() }

// NewDocument returns an empty document with a fresh document node.
func NewDocument() *Document {
	return &Document{Node: &Node{Type: DocumentNode}, Version: "1.0"}
}

// DocumentElement returns the document's root element, or nil if the
// document has none (an invalid state outside of construction).
func (d *Document) DocumentElement() *Node {
	if d == nil || d.Node == nil {
		return nil
	}
	return d.Node.FirstChildElement("")
}

// SetDocumentElement installs e as the document element, replacing any
// existing one and preserving prolog comments/PIs.
func (d *Document) SetDocumentElement(e *Node) {
	if old := d.DocumentElement(); old != nil {
		d.Node.RemoveChild(old)
	}
	d.Node.AppendChild(e)
}

// Renumber assigns document-order indexes to every node in the document:
// a preorder walk in which each element precedes its attributes, which
// precede its children. XPath node-set ordering relies on these indexes.
// It returns the number of nodes numbered.
func (d *Document) Renumber() int {
	next := 0
	var walk func(*Node)
	walk = func(n *Node) {
		n.Order = next
		next++
		for _, a := range n.Attrs {
			a.Order = next
			next++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.Node)
	d.nodeCount = next
	d.arena = nil // indexes moved; any arena is stale
	return next
}

// BuildArena numbers the document in preorder (as Renumber does) and
// flattens it into its struct-of-arrays representation, caches it on
// the document, and returns it. The parser calls this at parse time so
// serve-path documents always carry an arena; mutating callers must
// Renumber (which discards the arena) or rebuild before sharing the
// document again.
func (d *Document) BuildArena() *Arena { return WholeEdit(d).BuildArena() }

// Arena returns the document's struct-of-arrays representation,
// building it on first use. Like Renumber, the build is not safe to
// race with readers: construct the arena before sharing the document.
// Every parse builds one, so only hand-built documents, used by one
// goroutine, ever take the build branch here.
func (d *Document) Arena() *Arena {
	if d.arena == nil {
		return d.BuildArena()
	}
	return d.arena
}

// ArenaIfBuilt returns the document's arena, or nil if none has been
// built for the current numbering. XPath and authorization node-set
// evaluation use it to pick the array layout when one exists and the
// pointer tree otherwise.
func (d *Document) ArenaIfBuilt() *Arena { return d.arena }

// DropArena discards the cached arena, so that unmasked serialization
// and XPath evaluation read the pointer tree: callers that edit a
// parsed document in place use it before serializing the edits.
func (d *Document) DropArena() { d.arena = nil }

// NodeCount returns the number of nodes in the document as of the last
// Renumber, renumbering first if the document never was. Together with
// Renumber it maintains the dense-index invariant the mask pipeline
// relies on: every node's Order lies in [0, NodeCount()) and no two
// nodes share one. Callers that mutate the tree must Renumber before
// relying on NodeCount again; documents shared between goroutines must
// be renumbered before they are shared (the parser does this).
func (d *Document) NodeCount() int {
	if d.nodeCount == 0 {
		return d.Renumber()
	}
	return d.nodeCount
}

// Clone returns a deep copy of the document, renumbered.
func (d *Document) Clone() *Document {
	c, _ := d.CloneIndexed()
	return c
}

// CloneIndexed is Clone that also returns the copy's node slab: the
// copy's nodes in preorder, so nodes[i] is the copy of the node whose
// index is i. Callers that address nodes by index (update.Apply) read
// it instead of walking the copy for a node table.
func (d *Document) CloneIndexed() (*Document, []Node) {
	return d.cloneInto(nil, d.NodeCount())
}

// CloneMasked returns a deep copy of the document restricted to the
// mask-visible nodes: an invisible node is dropped together with its
// subtree (the mask computed by the security engine never marks a node
// visible under an invisible ancestor, so no content is lost). A nil
// mask clones everything. The copy is renumbered.
//
// This materializes a masked view as an ordinary document — the tree
// PruneDoc leaves of a labeled copy — for consumers that need a
// standalone tree (validation, XPath queries, offline tools). The serve
// path never calls it; it serializes through the mask instead.
func (d *Document) CloneMasked(mask Bitmask) *Document {
	if mask == nil {
		return d.Clone()
	}
	n := mask.Count()
	if !mask.Get(0) {
		n++ // the document node is always copied
	}
	c, _ := d.cloneInto(mask, n)
	return c
}

// cloneInto copies the mask-visible nodes into one slab of n nodes and
// their child and attribute lists into one slab of pointers, as the
// parser lays out a parse, and returns the copy with its first slab.
func (d *Document) cloneInto(mask Bitmask, n int) (*Document, []Node) {
	cl := &cloner{mask: mask, nodes: make([]Node, 0, n), ptrs: make([]*Node, 0, max(n-1, 0))}
	first := cl.nodes
	c := &Document{
		Node:       cl.node(d.Node, nil),
		Version:    d.Version,
		Encoding:   d.Encoding,
		Standalone: d.Standalone,
		nodeCount:  cl.next,
	}
	if d.DocType != nil {
		dt := *d.DocType
		c.DocType = &dt
	}
	return c, first[:min(cl.next, cap(first))]
}

// cloner hands out the nodes and list slices of one copy. Nodes are
// numbered as they are copied, in preorder, so the copy needs no
// Renumber walk. A slab that runs short (a numbering that undercounts
// the tree) continues in a fresh chunk rather than failing.
type cloner struct {
	mask  Bitmask
	nodes []Node
	ptrs  []*Node
	next  int
}

func (cl *cloner) node(n, parent *Node) *Node {
	if len(cl.nodes) == cap(cl.nodes) {
		cl.nodes = make([]Node, 0, max(cap(cl.nodes)/4, 16))
	}
	cl.nodes = cl.nodes[:len(cl.nodes)+1]
	c := &cl.nodes[len(cl.nodes)-1]
	*c = Node{Type: n.Type, Name: n.Name, Data: n.Data, Parent: parent, Order: cl.next, Defaulted: n.Defaulted}
	cl.next++
	c.Attrs = cl.list(n.Attrs, c)
	c.Children = cl.list(n.Children, c)
	return c
}

// list copies the visible nodes of src under parent into an exactly
// sized slice whose capacity is its length, so a later append (an edit
// of the copy) reallocates instead of overwriting a neighbour's list.
func (cl *cloner) list(src []*Node, parent *Node) []*Node {
	k := len(src)
	if cl.mask != nil {
		k = 0
		for _, s := range src {
			if cl.mask.Visible(s) {
				k++
			}
		}
	}
	if k == 0 {
		return nil
	}
	if cap(cl.ptrs)-len(cl.ptrs) < k {
		cl.ptrs = make([]*Node, 0, max(k, cap(cl.ptrs)/4, 16))
	}
	at := len(cl.ptrs)
	cl.ptrs = cl.ptrs[:at+k]
	out := cl.ptrs[at : at+k : at+k]
	j := 0
	for _, s := range src {
		if cl.mask.Visible(s) {
			out[j] = cl.node(s, parent)
			j++
		}
	}
	return out
}

// CountNodes returns the number of element and attribute nodes in the
// document, the unit in which the paper's labeling algorithm works.
// When an arena is built the count was taken at build time and no walk
// happens.
func (d *Document) CountNodes() int {
	if d.arena != nil {
		return d.arena.CountElemAttrs()
	}
	n := 0
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Type == ElementNode {
			n++
			n += len(m.Attrs)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(d.Node)
	return n
}

// Walk visits every node of the document in document order (elements
// before their attributes before their children) and calls f on each.
// If f returns false the walk skips the node's attributes and children.
func (d *Document) Walk(f func(*Node) bool) {
	var walk func(*Node)
	walk = func(n *Node) {
		if !f(n) {
			return
		}
		for _, a := range n.Attrs {
			f(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.Node)
}
