package dom

import "strings"

// SourceMap records where each element lies in a canonical source text
// (the text Edit.Source and SourceString write): for element i, the
// offset of its markup from the start of its parent's and its length.
// Offsets are relative so that a subtree copied into a later
// generation keeps its entries unchanged; only its root's offset is
// rewritten. The document node's entry spans the whole text; text,
// comment and processing-instruction nodes have none.
type SourceMap struct {
	rel []span
}

// start returns the absolute offset of element i in the text the map
// was recorded with, whose arena is a.
func (m *SourceMap) start(a *Arena, i int32) int {
	s := 0
	for ; i > 0; i = a.parent[i] {
		s += int(m.rel[i].off)
	}
	return s
}

// Source writes the edited copy's canonical text — the stored source
// of the generation it becomes, leaving out Defaulted attributes so
// that a defaulting parse of the text rebuilds the copy exactly — and
// the element ranges a later local commit copies from. Call it after
// BuildArena. For a local commit each clean subtree BuildArena copied
// is copied from the base's text as one byte range; only the footprint
// and its ancestors are serialized.
func (e *Edit) Source() (string, *SourceMap) {
	return writeSource(e.doc, e)
}

// writeSource serializes d through its arena as stored source text,
// copying the runs of a local edit e (nil: none) from its base's text.
func writeSource(d *Document, e *Edit) (string, *SourceMap) {
	a := d.Arena()
	w := &sourceWriter{a: a, rel: make([]span, a.Len())}
	if e != nil && e.base != nil {
		w.e = e
	}
	w.b.Grow(d.prologLen() + a.SizeHint())
	d.writeProlog(&errWriter{w: &w.b}, WriteOptions{})
	for c := a.firstChild[0]; c >= 0; c = a.nextSibling[c] {
		w.node(c, 0)
	}
	w.rel[0] = span{n: uint32(w.b.Len())}
	return w.b.String(), &SourceMap{rel: w.rel}
}

// prologLen bounds the length of the XML declaration and DOCTYPE that
// Write emits before the body.
func (d *Document) prologLen() int {
	n := 64 + len(d.Version) + len(d.Encoding) + len(d.Standalone)
	if dt := d.DocType; dt != nil {
		n += 32 + len(dt.Name) + len(dt.PublicID) + len(dt.SystemID) + len(dt.InternalSubset)
	}
	return n
}

// sourceWriter is one writeSource: the output, the element ranges
// recorded so far, and the next of the edit's runs to meet.
type sourceWriter struct {
	a      *Arena
	b      strings.Builder
	rel    []span
	e      *Edit
	cursor int
}

// node writes the subtree at index i, whose parent's markup starts at
// parentStart. The output is arenaWriter's under the mask that hides
// exactly the Defaulted attributes.
func (w *sourceWriter) node(i int32, parentStart int) {
	a, b := w.a, &w.b
	start := b.Len()
	switch a.kind[i] {
	case ElementNode:
		if e := w.e; e != nil && w.cursor < len(e.runs) && e.runs[w.cursor].new == i {
			r := &e.runs[w.cursor]
			w.cursor++
			rel := e.baseMap.rel[r.old : r.old+r.n]
			bs := e.baseMap.start(e.base, r.old)
			b.WriteString(e.baseText[bs : bs+int(rel[0].n)])
			copy(w.rel[i:i+r.n], rel)
			w.rel[i].off = uint32(start - parentStart)
			return
		}
		name := a.syms.names[a.name[i]]
		b.WriteByte('<')
		b.WriteString(name)
		for at := a.attrStart[i]; at < a.attrEnd[i]; at++ {
			if a.defaulted.Get(int(at)) {
				continue
			}
			b.WriteByte(' ')
			b.WriteString(a.syms.names[a.name[at]])
			b.WriteString(`="`)
			b.Write(a.escData(at))
			b.WriteByte('"')
		}
		if a.firstChild[i] < 0 {
			b.WriteString("/>")
		} else {
			b.WriteByte('>')
			for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
				w.node(c, start)
			}
			b.WriteString("</")
			b.WriteString(name)
			b.WriteByte('>')
		}
		w.rel[i] = span{off: uint32(start - parentStart), n: uint32(b.Len() - start)}
	case TextNode, CDATANode:
		b.Write(a.escData(i))
	case CommentNode:
		b.WriteString("<!--")
		b.Write(a.escData(i))
		b.WriteString("-->")
	case ProcessingInstructionNode:
		b.WriteString("<?")
		b.WriteString(a.syms.names[a.name[i]])
		if a.esc[i].n > 0 {
			b.WriteByte(' ')
			b.Write(a.escData(i))
		}
		b.WriteString("?>")
	}
}
