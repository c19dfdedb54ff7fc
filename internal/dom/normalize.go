package dom

import (
	"strings"
	"unicode/utf8"
)

// Normalize rewrites an edited document in place into the tree that
// parsing its serialization rebuilds (a parse with default options):
//
//   - adjacent text siblings merge into one, and a merged run that is
//     empty or whitespace-only is dropped;
//   - invalid UTF-8 in text and attribute values becomes U+FFFD, one
//     per offending byte, as the serializer writes it;
//   - no attribute is marked Defaulted any more, since the serializer
//     writes every attribute out.
//
// Every other node kind already round-trips as it stands, because the
// tree's nodes all come from such parses (the stored document, script
// fragments, a PUT body) or are text and attributes an edit created:
// there are no comments, and CDATA and processing-instruction data are
// as the parser leaves them. DTD attribute defaulting is the caller's
// next step, and the document must be numbered afterwards (BuildArena
// numbers it). Edit.Normalize does the same for an edit's footprint
// alone.
//
// Last, the document's strings are copied into storage of its own, as
// a parse's strings are substrings of its one input. An edited copy's
// strings point into the texts they came from — an earlier generation's
// source, a PUT body, a script — and each of those would otherwise stay
// alive for as long as one string taken from it does.
func (d *Document) Normalize() {
	d.Node.normalizeContent(true)
	ownStrings(func(f func(*Node)) { walkNodes(d.Node, f) })
	d.Version, d.Encoding, d.Standalone = strings.Clone(d.Version), strings.Clone(d.Encoding), strings.Clone(d.Standalone)
	if dt := d.DocType; dt != nil {
		d.DocType = &DocType{Name: strings.Clone(dt.Name), PublicID: strings.Clone(dt.PublicID),
			SystemID: strings.Clone(dt.SystemID), InternalSubset: strings.Clone(dt.InternalSubset)}
	}
}

// ownStrings moves the name and data strings of the nodes each visits
// into one buffer.
func ownStrings(each func(f func(*Node))) {
	n := 0
	each(func(m *Node) { n += len(m.Name) + len(m.Data) })
	var b strings.Builder
	b.Grow(n)
	each(func(m *Node) { b.WriteString(m.Name); b.WriteString(m.Data) })
	buf := b.String()
	each(func(m *Node) {
		m.Name, buf = buf[:len(m.Name)], buf[len(m.Name):]
		m.Data, buf = buf[:len(m.Data)], buf[len(m.Data):]
	})
}

// normalizeContent normalizes n's attributes and children, and, when
// deep, its element children's content recursively. Children are
// compacted in place: the list only shrinks.
func (n *Node) normalizeContent(deep bool) {
	for _, a := range n.Attrs {
		a.Data = validUTF8(a.Data)
		a.Defaulted = false
	}
	out := n.Children[:0]
	var run *Node // the text node collecting the current run
	for _, c := range n.Children {
		if c.Type == TextNode {
			data := validUTF8(c.Data)
			if run != nil {
				run.Data += data
				c.Parent = nil
				continue
			}
			c.Data = data
			run = c
		} else {
			out, run = endRun(out, run), nil
			if deep && c.Type == ElementNode {
				c.normalizeContent(true)
			}
		}
		out = append(out, c)
	}
	n.Children = endRun(out, run)
}

// endRun closes a text run, the last node of out: a run that is empty
// or whitespace-only is dropped, as the parser drops it.
func endRun(out []*Node, run *Node) []*Node {
	if run != nil && strings.TrimSpace(run.Data) == "" {
		run.Parent = nil
		return out[:len(out)-1]
	}
	return out
}

// validUTF8 returns s with each byte that is not part of valid UTF-8
// replaced by U+FFFD — the serializer's rule — or s itself when it is
// valid.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+2*len(replacementChar))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, replacementChar...)
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return string(b)
}
