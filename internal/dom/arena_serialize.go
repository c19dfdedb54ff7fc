package dom

import "bytes"

// arenaWriter serializes an arena through a visibility mask. Output is
// byte-identical to the pointer-tree serializer (writeNode) on a copy
// pruned to the same visibility — the differential tests and
// FuzzArenaParity pin this — but character data is copied straight out of the arena's
// pre-escaped spans instead of being re-escaped per request, and
// indentation comes from one growable pad instead of per-line
// strings.Repeat allocations.
type arenaWriter struct {
	a      *Arena
	w      *errWriter
	indent string
	mask   Bitmask
	pad    []byte
}

// writeContent emits the arena's top-level children (the prolog
// comments/PIs and the document element), mirroring Document.Write's
// body loop.
func (a *Arena) writeContent(w *errWriter, opts WriteOptions) {
	s := arenaWriter{a: a, w: w, indent: opts.Indent, mask: opts.Mask}
	for c := a.firstChild[0]; c >= 0; c = a.nextSibling[c] {
		if !s.mask.VisibleIdx(c) {
			continue
		}
		s.node(c, 0)
		if s.indent != "" {
			w.str("\n")
		}
	}
}

// writeIndent emits depth copies of the indent unit.
func (s *arenaWriter) writeIndent(depth int) {
	need := depth * len(s.indent)
	for len(s.pad) < need {
		s.pad = append(s.pad, s.indent...)
	}
	s.w.bytes(s.pad[:need])
}

// hasElementContent mirrors the tree serializer's pretty-print guard:
// the mask-visible children must be exclusively elements, comments and
// PIs (plus whitespace-only text) for indentation to be safe.
func (s *arenaWriter) hasElementContent(i int32) bool {
	a := s.a
	any := false
	for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
		if !s.mask.VisibleIdx(c) {
			continue
		}
		switch a.kind[c] {
		case TextNode, CDATANode:
			if len(bytes.TrimSpace(a.RawData(c))) != 0 {
				return false
			}
		case ElementNode, CommentNode, ProcessingInstructionNode:
			any = true
		}
	}
	return any
}

// node serializes the mask-visible subtree rooted at index i. The
// caller has already established that i itself is visible.
func (s *arenaWriter) node(i int32, depth int) {
	a, w := s.a, s.w
	switch a.kind[i] {
	case ElementNode:
		w.str("<")
		w.str(a.Name(i))
		for at := a.attrStart[i]; at < a.attrEnd[i]; at++ {
			if !s.mask.VisibleIdx(at) {
				continue
			}
			w.str(" ")
			w.str(a.Name(at))
			w.str(`="`)
			w.bytes(a.escData(at))
			w.str(`"`)
		}
		empty := true
		for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
			if s.mask.VisibleIdx(c) {
				empty = false
				break
			}
		}
		if empty {
			w.str("/>")
			return
		}
		w.str(">")
		pretty := s.indent != "" && s.hasElementContent(i)
		for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
			if !s.mask.VisibleIdx(c) {
				continue
			}
			if pretty {
				if a.kind[c] == TextNode && len(bytes.TrimSpace(a.RawData(c))) == 0 {
					continue
				}
				w.str("\n")
				s.writeIndent(depth + 1)
			}
			s.node(c, depth+1)
		}
		if pretty {
			w.str("\n")
			s.writeIndent(depth)
		}
		w.str("</")
		w.str(a.Name(i))
		w.str(">")
	case TextNode, CDATANode:
		// esc holds the escaped text (or the complete pre-rendered CDATA
		// section); emit it verbatim.
		w.bytes(a.escData(i))
	case CommentNode:
		w.str("<!--")
		w.bytes(a.escData(i))
		w.str("-->")
	case ProcessingInstructionNode:
		w.str("<?")
		w.str(a.Name(i))
		if a.esc[i].n > 0 {
			w.str(" ")
			w.bytes(a.escData(i))
		}
		w.str("?>")
	case AttributeNode:
		w.str(a.Name(i))
		w.str(`="`)
		w.bytes(a.escData(i))
		w.str(`"`)
	case DocumentNode:
		for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
			if s.mask.VisibleIdx(c) {
				s.node(c, depth)
			}
		}
	}
}
