package dom

import "strings"

// span locates one run of character data inside an Arena's shared byte
// buffer.
type span struct{ off, n uint32 }

// Arena is the struct-of-arrays document representation: every node of
// a renumbered Document, laid out as parallel arrays indexed by the
// node's dense preorder index (Node.Order). The pointer tree remains
// the adapter for XPath fallback, DTD validation, merge, update apply
// and the specification oracle's copies; the arena is the only
// representation the view pipeline reads, where the label, mask and unparse sweeps touch
// cache-dense arrays instead of chasing pointers.
//
// Layout invariants (see docs/ARENA.md):
//
//   - Array index = preorder index: index 0 is the document node, an
//     element precedes its attributes, which precede its children —
//     exactly Document.Renumber's convention, so a Labeling or Bitmask
//     computed against the arena is interchangeable with one computed
//     against the tree.
//   - An element's attributes occupy the contiguous index range
//     [attrStart, attrEnd), which immediately follows the element.
//   - firstChild/nextSibling link only non-attribute children;
//     attributes are reached through their range, never the child list.
//   - All character data lives in one shared byte buffer. Each node
//     carries a raw span (the exact parsed data) and an escape span
//     (the serialization-ready form, escaped once at build time); when
//     escaping is the identity the two spans alias the same bytes.
//
// An Arena is immutable after construction: readers may share it
// freely across goroutines. It is only meaningful for the document and
// numbering generation it was built from; Renumber discards it.
type Arena struct {
	kind        []NodeType
	name        []Sym
	parent      []int32
	firstChild  []int32
	nextSibling []int32
	attrStart   []int32
	attrEnd     []int32
	raw         []span
	esc         []span
	defaulted   Bitmask
	bytes       []byte
	syms        *symTab

	elemAttrs int // elements + attributes, the paper's node unit
	sizeHint  int // estimated serialized output size

	// Document metadata, carried so Materialize can reconstruct a
	// standalone Document adapter.
	version    string
	encoding   string
	standalone string
	docType    *DocType
}

// explicitMask returns the mask that shows every node except the
// attributes DTD defaulting supplied, or nil when there are none.
func (a *Arena) explicitMask() Bitmask {
	if a.defaulted.Count() == 0 {
		return nil
	}
	m := make(Bitmask, len(a.defaulted))
	for i, w := range a.defaulted {
		m[i] = ^w
	}
	return m
}

// buildArena flattens a renumbered document into a fresh arena.
func buildArena(d *Document) *Arena {
	n := d.NodeCount()
	a := &Arena{
		kind:        make([]NodeType, n),
		name:        make([]Sym, n),
		parent:      make([]int32, n),
		firstChild:  make([]int32, n),
		nextSibling: make([]int32, n),
		attrStart:   make([]int32, n),
		attrEnd:     make([]int32, n),
		raw:         make([]span, n),
		esc:         make([]span, n),
		defaulted:   NewBitmask(n),
		bytes:       make([]byte, 0, arenaBytes(d.Node)),
		syms:        newSymTab(),
		version:     d.Version,
		encoding:    d.Encoding,
		standalone:  d.Standalone,
	}
	if d.DocType != nil {
		dt := *d.DocType
		a.docType = &dt
	}
	var walk func(nd *Node, parent int32)
	walk = func(nd *Node, parent int32) {
		i := int32(nd.Order)
		a.kind[i] = nd.Type
		a.parent[i] = parent
		a.firstChild[i] = -1
		a.nextSibling[i] = -1
		switch nd.Type {
		case ElementNode:
			a.name[i] = a.syms.intern(nd.Name)
			a.elemAttrs++
			a.sizeHint += 2*len(nd.Name) + 5
		case AttributeNode:
			a.name[i] = a.syms.intern(nd.Name)
			a.raw[i] = a.appendRaw(nd.Data)
			a.esc[i] = a.appendEsc(a.raw[i], nd.Data, true)
			if nd.Defaulted {
				a.defaulted.Set(int(i))
			}
			a.elemAttrs++
			a.sizeHint += len(nd.Name) + 4 + int(a.esc[i].n)
		case TextNode:
			a.raw[i] = a.appendRaw(nd.Data)
			a.esc[i] = a.appendEsc(a.raw[i], nd.Data, false)
			a.sizeHint += int(a.esc[i].n)
		case CDATANode:
			a.raw[i] = a.appendRaw(nd.Data)
			a.esc[i] = a.appendCDATA(nd.Data)
			a.sizeHint += int(a.esc[i].n)
		case CommentNode:
			a.raw[i] = a.appendRaw(nd.Data)
			a.esc[i] = a.raw[i]
			a.sizeHint += int(a.esc[i].n) + 7
		case ProcessingInstructionNode:
			a.name[i] = a.syms.intern(nd.Name)
			a.raw[i] = a.appendRaw(nd.Data)
			a.esc[i] = a.raw[i]
			a.sizeHint += len(nd.Name) + int(a.esc[i].n) + 5
		}
		a.attrStart[i] = i + 1
		a.attrEnd[i] = i + 1 + int32(len(nd.Attrs))
		for _, at := range nd.Attrs {
			walk(at, i)
		}
		var prev int32 = -1
		for _, c := range nd.Children {
			ci := int32(c.Order)
			if prev < 0 {
				a.firstChild[i] = ci
			} else {
				a.nextSibling[prev] = ci
			}
			prev = ci
			walk(c, i)
		}
	}
	walk(d.Node, -1)
	return a
}

// arenaBytes returns the exact size of the shared byte buffer for the
// subtree rooted at nd, so buildArena allocates it once: every node's
// raw data, plus its escaped form wherever escaping is not the
// identity, plus each CDATA section's rendered markup.
func arenaBytes(nd *Node) int {
	n := len(nd.Data)
	switch nd.Type {
	case AttributeNode, TextNode:
		if e := escapedLen(nd.Data, nd.Type == AttributeNode); e != len(nd.Data) {
			n += e
		}
	case CDATANode:
		n += cdataLen(nd.Data)
	}
	for _, at := range nd.Attrs {
		n += arenaBytes(at)
	}
	for _, c := range nd.Children {
		n += arenaBytes(c)
	}
	return n
}

// appendRaw copies s into the shared buffer and returns its span.
func (a *Arena) appendRaw(s string) span {
	sp := span{off: uint32(len(a.bytes)), n: uint32(len(s))}
	a.bytes = append(a.bytes, s...)
	return sp
}

// appendEsc returns the span for the escaped form of raw data s (whose
// copy is the span raw): when escaping changes nothing the raw span is
// aliased, otherwise the escaped bytes are appended separately.
func (a *Arena) appendEsc(raw span, s string, attr bool) span {
	if escapedLen(s, attr) == len(s) {
		return raw
	}
	off := len(a.bytes)
	a.bytes = appendEscaped(a.bytes, s, attr)
	return span{off: uint32(off), n: uint32(len(a.bytes) - off)}
}

// cdataLen is the length of a CDATA body rendered by appendCDATA: each
// "]]>" split adds one "]]><![CDATA[" (12 bytes) to the outer markup.
func cdataLen(data string) int {
	return len(data) + 12*(strings.Count(data, "]]>")+1)
}

// appendCDATA pre-renders a CDATA body as the complete section markup,
// splitting on "]]>" exactly as the tree serializer does, so unparsing
// the node is a single byte copy.
func (a *Arena) appendCDATA(data string) span {
	off := len(a.bytes)
	for {
		i := strings.Index(data, "]]>")
		if i < 0 {
			break
		}
		a.bytes = append(append(append(a.bytes, "<![CDATA["...), data[:i+2]...), "]]>"...)
		data = data[i+2:]
	}
	a.bytes = append(append(append(a.bytes, "<![CDATA["...), data...), "]]>"...)
	return span{off: uint32(off), n: uint32(len(a.bytes) - off)}
}

// Len returns the number of nodes in the arena.
func (a *Arena) Len() int { return len(a.kind) }

// Kind returns the node type at index i.
func (a *Arena) Kind(i int32) NodeType { return a.kind[i] }

// Name returns the element tag name, attribute name, or PI target at
// index i ("" for other kinds).
func (a *Arena) Name(i int32) string { return a.syms.name(a.name[i]) }

// NameSym returns the interned name symbol at index i; symbols compare
// equal iff the names are equal within this arena.
func (a *Arena) NameSym(i int32) Sym { return a.name[i] }

// Parent returns the parent index of i, or -1 for the document node.
func (a *Arena) Parent(i int32) int32 { return a.parent[i] }

// FirstChild returns the first non-attribute child of i, or -1.
func (a *Arena) FirstChild(i int32) int32 { return a.firstChild[i] }

// NextSibling returns the next non-attribute sibling of i, or -1.
func (a *Arena) NextSibling(i int32) int32 { return a.nextSibling[i] }

// Attrs returns the contiguous attribute index range [start, end) of
// element i (an empty range for attribute-less or non-element nodes).
func (a *Arena) Attrs(i int32) (start, end int32) { return a.attrStart[i], a.attrEnd[i] }

// RawData returns the raw character data at index i: the text/CDATA
// content, comment body, PI instruction, or attribute value, exactly
// as parsed. The returned slice aliases the arena buffer and must not
// be modified.
func (a *Arena) RawData(i int32) []byte {
	sp := a.raw[i]
	return a.bytes[sp.off : sp.off+sp.n]
}

// escData returns the serialization-ready bytes at index i.
func (a *Arena) escData(i int32) []byte {
	sp := a.esc[i]
	return a.bytes[sp.off : sp.off+sp.n]
}

// Defaulted reports whether the attribute at index i was supplied by
// DTD attribute defaulting rather than the source document.
func (a *Arena) Defaulted(i int32) bool { return a.defaulted.Get(int(i)) }

// LookupSym resolves a name to its interned symbol, reporting whether
// the arena contains the name at all. A name absent from the symbol
// table cannot match any node, which lets callers turn a string
// comparison per node into one map lookup per query plus an integer
// comparison per node (the arena-native XPath evaluator does exactly
// this).
func (a *Arena) LookupSym(name string) (Sym, bool) {
	s, ok := a.syms.index[name]
	return s, ok
}

// SubtreeEnd returns the index one past the last node of i's subtree:
// the preorder convention (element, then its attributes, then its
// children's subtrees) makes every subtree a contiguous index range
// [i, SubtreeEnd(i)), so descendant sweeps are linear array scans.
// An attribute's subtree is just itself.
func (a *Arena) SubtreeEnd(i int32) int32 {
	if a.kind[i] == AttributeNode {
		return i + 1
	}
	for j := i; j >= 0; j = a.parent[j] {
		if ns := a.nextSibling[j]; ns >= 0 {
			return ns
		}
	}
	return int32(len(a.kind))
}

// TextContent returns the XPath string-value of the element or document
// node at index i: the concatenation of all descendant text and CDATA
// character data in document order (attribute values are not part of an
// element's string-value). It is the arena counterpart of Node.Text,
// computed as one contiguous range scan over the subtree.
func (a *Arena) TextContent(i int32) string {
	end := a.SubtreeEnd(i)
	var buf []byte
	for j := i; j < end; j++ {
		if k := a.kind[j]; k == TextNode || k == CDATANode {
			buf = append(buf, a.RawData(j)...)
		}
	}
	return string(buf)
}

// DocumentElement returns the index of the document element (the first
// element child of the document node), or -1 if the arena has none.
func (a *Arena) DocumentElement() int32 {
	for c := a.firstChild[0]; c >= 0; c = a.nextSibling[c] {
		if a.kind[c] == ElementNode {
			return c
		}
	}
	return -1
}

// CountElemAttrs returns the number of element and attribute nodes —
// the unit in which the paper's labeling statistics are expressed —
// counted once at build time.
func (a *Arena) CountElemAttrs() int { return a.elemAttrs }

// SizeHint returns an estimate of the document's serialized size in
// bytes, suitable for pre-sizing output buffers.
func (a *Arena) SizeHint() int { return a.sizeHint }

// Syms returns the number of distinct interned names.
func (a *Arena) Syms() int { return a.syms.Len() }

// ByteLen returns the size of the shared character-data buffer.
func (a *Arena) ByteLen() int { return len(a.bytes) }

// Materialize reconstructs a standalone pointer-tree Document from the
// arena — the adapter consumers such as XPath evaluation, DTD
// validation and the differential oracles operate on. The result is
// renumbered (its Order values equal the arena indexes, since both
// follow the same preorder convention) and does not share nodes with
// any other tree; it carries no arena of its own.
func (a *Arena) Materialize() *Document {
	d := &Document{
		Version:    a.version,
		Encoding:   a.encoding,
		Standalone: a.standalone,
	}
	if a.docType != nil {
		dt := *a.docType
		d.DocType = &dt
	}
	var build func(i int32) *Node
	build = func(i int32) *Node {
		nd := &Node{Type: a.kind[i], Order: int(i)}
		switch a.kind[i] {
		case ElementNode, AttributeNode, ProcessingInstructionNode:
			nd.Name = a.Name(i)
		}
		switch a.kind[i] {
		case AttributeNode, TextNode, CDATANode, CommentNode, ProcessingInstructionNode:
			nd.Data = string(a.RawData(i))
		}
		if a.kind[i] == AttributeNode && a.Defaulted(i) {
			nd.Defaulted = true
		}
		for at := a.attrStart[i]; at < a.attrEnd[i]; at++ {
			ac := build(at)
			ac.Parent = nd
			nd.Attrs = append(nd.Attrs, ac)
		}
		for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
			cc := build(c)
			cc.Parent = nd
			nd.Children = append(nd.Children, cc)
		}
		return nd
	}
	d.Node = build(0)
	d.nodeCount = len(a.kind)
	return d
}
