package dom

import (
	"math/bits"
	"sort"
	"strings"
)

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

// BuildArena numbers the edited copy in preorder and flattens it into
// its arena, which it caches on the copy and returns. For a local
// commit, every clean subtree — an element that is neither in the
// footprint nor an ancestor of it — is copied from the base as one run
// of array rows and character data, with its indexes and byte offsets
// shifted, and its nodes renumbered through the copy's node slab; only
// the footprint and its ancestors are written row by row. The layout
// is the one a fresh build of the same tree has, except that a local
// commit shares the base's symbol table (or extends a copy of it) so
// symbols may be numbered differently. A whole-document edit (and
// Document.BuildArena) writes every row.
func (e *Edit) BuildArena() *Arena {
	d := e.doc
	b := &arenaBuilder{e: e}
	if e.base != nil {
		b.dirty = NewBitmask(len(e.slab))
		for _, t := range e.touched {
			b.markDirty(t)
		}
		for _, r := range e.inserted {
			b.markDirty(r.Parent)
		}
	}
	b.measure(d.Node)
	n := b.nodes
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
		bytes:       make([]byte, 0, b.bytes),
		version:     d.Version,
		encoding:    d.Encoding,
		standalone:  d.Standalone,
	}
	if e.base != nil {
		a.syms, b.sharedSyms = e.base.syms, true
	} else {
		a.syms = newSymTab()
	}
	if d.DocType != nil {
		dt := *d.DocType
		a.docType = &dt
	}
	b.a = a
	b.node(d.Node, -1)
	if e.base != nil {
		b.runTotals()
	}
	e.built = b.built
	d.nodeCount = int(b.next)
	d.arena = a
	return a
}

// arenaBuilder carries one BuildArena: a measuring walk that sizes the
// arrays and finds the clean runs, then the building walk.
type arenaBuilder struct {
	e          *Edit
	a          *Arena
	dirty      Bitmask // base indexes of the footprint and its ancestors
	sharedSyms bool    // a.syms is the base's: copy before interning
	nodes      int     // measured node count
	bytes      int     // measured character-data bytes
	next       int32   // next index to assign
	cursor     int     // next run to place
	built      int
}

// markDirty marks n and its ancestors, stopping at the first one
// already marked.
func (b *arenaBuilder) markDirty(n *Node) {
	for ; n != nil && n.Order >= 0 && !b.dirty.Get(n.Order); n = n.Parent {
		b.dirty.Set(n.Order)
	}
}

// clean reports whether nd is a copied element outside the footprint
// and its ancestors, whose subtree is therefore the base's.
func (b *arenaBuilder) clean(nd *Node) bool {
	return b.dirty != nil && nd.Type == ElementNode && nd.Order >= 0 && !b.dirty.Get(nd.Order)
}

// measure counts the nodes and character-data bytes of the subtree at
// nd, recording each clean run it meets.
func (b *arenaBuilder) measure(nd *Node) {
	if b.clean(nd) {
		base := b.e.base
		o := int32(nd.Order)
		end := base.SubtreeEnd(o)
		bs, be := base.byteRange(o, end)
		b.e.runs = append(b.e.runs, run{old: o, n: end - o, bs: bs, be: be})
		b.nodes += int(end - o)
		b.bytes += be - bs
		return
	}
	b.nodes += 1 + len(nd.Attrs)
	b.bytes += dataBytes(nd)
	for _, at := range nd.Attrs {
		b.bytes += dataBytes(at)
	}
	for _, c := range nd.Children {
		b.measure(c)
	}
}

// node places the subtree at nd at the next index under parent and
// returns that index.
func (b *arenaBuilder) node(nd *Node, parent int32) int32 {
	i := b.next
	if b.clean(nd) {
		b.copyRun(&b.e.runs[b.cursor], i, parent)
		b.cursor++
		return i
	}
	a := b.a
	b.next++
	b.built++
	nd.Order = int(i)
	a.kind[i] = nd.Type
	a.parent[i] = parent
	a.firstChild[i] = -1
	a.nextSibling[i] = -1
	switch nd.Type {
	case ElementNode:
		a.name[i] = b.intern(nd.Name)
		a.elemAttrs++
		a.sizeHint += 2*len(nd.Name) + 5
	case AttributeNode:
		a.name[i] = b.intern(nd.Name)
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
		a.name[i] = b.intern(nd.Name)
		a.raw[i] = a.appendRaw(nd.Data)
		a.esc[i] = a.raw[i]
		a.sizeHint += len(nd.Name) + int(a.esc[i].n) + 5
	}
	a.attrStart[i] = i + 1
	a.attrEnd[i] = i + 1 + int32(len(nd.Attrs))
	for _, at := range nd.Attrs {
		b.node(at, i)
	}
	prev := int32(-1)
	for _, c := range nd.Children {
		ci := b.node(c, i)
		if prev < 0 {
			a.firstChild[i] = ci
		} else {
			a.nextSibling[prev] = ci
		}
		prev = ci
	}
	return i
}

// intern returns the symbol for name, copying a shared table before
// the first name it lacks is added: readers of the base hold that
// table.
func (b *arenaBuilder) intern(name string) Sym {
	if s, ok := b.a.syms.index[name]; ok {
		return s
	}
	if b.sharedSyms {
		b.a.syms = b.a.syms.clone()
		b.sharedSyms = false
	}
	return b.a.syms.intern(name)
}

// copyRun places run r at index i under parent: the base's rows with
// indexes shifted by i-r.old and byte offsets by the distance its
// character data moves, and the run's nodes in the copy renumbered.
// A run that does not move (every run before the edit, and after an
// edit that keeps the node count or the byte count) is a plain copy.
func (b *arenaBuilder) copyRun(r *run, i, parent int32) {
	base, a := b.e.base, b.a
	o, n := r.old, r.n
	r.new = i
	d := i - o
	bd := uint32(len(a.bytes) - r.bs) // modular: offsets may move down
	a.bytes = append(a.bytes, base.bytes[r.bs:r.be]...)
	copy(a.kind[i:i+n], base.kind[o:o+n])
	copy(a.name[i:i+n], base.name[o:o+n])
	shiftIdx(a.parent[i:i+n], base.parent[o:o+n], d)
	shiftIdx(a.firstChild[i:i+n], base.firstChild[o:o+n], d)
	shiftIdx(a.nextSibling[i:i+n], base.nextSibling[o:o+n], d)
	shiftIdx(a.attrStart[i:i+n], base.attrStart[o:o+n], d)
	shiftIdx(a.attrEnd[i:i+n], base.attrEnd[o:o+n], d)
	a.parent[i] = parent
	a.nextSibling[i] = -1
	raw, esc := base.raw[o:o+n], base.esc[o:o+n]
	araw, aesc := a.raw[i:i+n], a.esc[i:i+n]
	if bd == 0 {
		copy(araw, raw)
		copy(aesc, esc)
	} else {
		for k, kd := range base.kind[o : o+n] {
			if hasData(kd) {
				araw[k] = span{off: raw[k].off + bd, n: raw[k].n}
				aesc[k] = span{off: esc[k].off + bd, n: esc[k].n}
			}
		}
	}
	if d != 0 {
		slab := b.e.slab[o : o+n]
		for k := range slab {
			slab[k].Order = int(i) + k
		}
	}
	b.next += n
}

// runTotals adds the runs' share of the element+attribute count and
// the size hint — the base's totals less those of the base nodes
// outside every run, which the footprint bounds — and carries the
// runs' Defaulted marks over.
func (b *arenaBuilder) runTotals() {
	base, a := b.e.base, b.a
	elemAttrs, sizeHint := base.elemAttrs, base.sizeHint
	gap := func(from, to int32) {
		for j := from; j < to; j++ {
			if k := base.kind[j]; k == ElementNode || k == AttributeNode {
				elemAttrs--
			}
			sizeHint -= base.nodeSize(j)
		}
	}
	next := int32(0)
	for _, r := range b.e.runs {
		gap(next, r.old)
		next = r.old + r.n
	}
	gap(next, int32(base.Len()))
	a.elemAttrs += elemAttrs
	a.sizeHint += sizeHint
	for w, word := range base.defaulted {
		for word != 0 {
			k := int32(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			runs := b.e.runs
			j := sort.Search(len(runs), func(x int) bool { return runs[x].old+runs[x].n > k })
			if j < len(runs) && runs[j].old <= k {
				a.defaulted.Set(int(k + runs[j].new - runs[j].old))
			}
		}
	}
}

// nodeSize is node i's share of the size hint: the bytes it adds to a
// serialization.
func (a *Arena) nodeSize(i int32) int {
	switch a.kind[i] {
	case ElementNode:
		return 2*len(a.syms.names[a.name[i]]) + 5
	case AttributeNode:
		return len(a.syms.names[a.name[i]]) + 4 + int(a.esc[i].n)
	case CommentNode:
		return int(a.esc[i].n) + 7
	case ProcessingInstructionNode:
		return len(a.syms.names[a.name[i]]) + int(a.esc[i].n) + 5
	case TextNode, CDATANode:
		return int(a.esc[i].n)
	}
	return 0
}

// shiftIdx copies src into dst adding d to every index (-1, no node,
// stays -1).
func shiftIdx(dst, src []int32, d int32) {
	if d == 0 {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for k, v := range src {
		if v >= 0 {
			v += d
		}
		dst[k] = v
	}
}

// byteRange returns the bytes [bs, be) that the character data of the
// nodes [o, end) occupies: the nodes append their data in preorder, so
// it runs from the first data node's raw span to the last one's end.
func (a *Arena) byteRange(o, end int32) (bs, be int) {
	j := o
	for j < end && !hasData(a.kind[j]) {
		j++
	}
	if j == end {
		return 0, 0
	}
	bs = int(a.raw[j].off)
	for j = end - 1; !hasData(a.kind[j]); j-- {
	}
	return bs, int(max(a.raw[j].off+a.raw[j].n, a.esc[j].off+a.esc[j].n))
}

// hasData reports whether nodes of kind k carry character data in the
// arena's byte buffer.
func hasData(k NodeType) bool { return k != ElementNode && k != DocumentNode }

// dataBytes returns the bytes node nd adds to the arena's buffer: its
// raw data, plus its escaped form wherever escaping is not the
// identity, plus a CDATA section's rendered markup.
func dataBytes(nd *Node) int {
	n := len(nd.Data)
	switch nd.Type {
	case AttributeNode, TextNode:
		if e := escapedLen(nd.Data, nd.Type == AttributeNode); e != len(nd.Data) {
			n += e
		}
	case CDATANode:
		n += cdataLen(nd.Data)
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

// EscapedData returns the serialization-ready form of the data at index
// i, escaped once when the arena was built (a CDATA node's is its whole
// section markup). Like RawData it aliases the arena buffer.
func (a *Arena) EscapedData(i int32) []byte { return a.escData(i) }

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
