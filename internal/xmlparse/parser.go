package xmlparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
)

// SyntaxError reports a well-formedness violation with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Loader resolves external DTD subsets referenced by SYSTEM identifiers.
type Loader interface {
	// LoadDTD returns the text of the external DTD subset identified by
	// systemID.
	LoadDTD(systemID string) (string, error)
}

// FileLoader loads external subsets from the filesystem, resolving
// relative system identifiers against Base.
type FileLoader struct {
	// Base is the directory against which relative system identifiers
	// resolve; empty means the current directory.
	Base string
}

// LoadDTD implements Loader.
func (l FileLoader) LoadDTD(systemID string) (string, error) {
	p := systemID
	if !filepath.IsAbs(p) {
		p = filepath.Join(l.Base, p)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// MapLoader serves external subsets from an in-memory map, keyed by
// system identifier. It is the hermetic loader used in tests and by the
// security processor's document store.
type MapLoader map[string]string

// LoadDTD implements Loader.
func (l MapLoader) LoadDTD(systemID string) (string, error) {
	s, ok := l[systemID]
	if !ok {
		return "", fmt.Errorf("xmlparse: no DTD registered for system id %q", systemID)
	}
	return s, nil
}

// Options configures parsing.
type Options struct {
	// Loader resolves external DTD subsets. If nil, external subsets
	// are skipped (the internal subset is still parsed).
	Loader Loader

	// KeepWhitespace preserves whitespace-only text nodes. By default
	// they are dropped, which matches the paper's element-structure
	// view of documents and keeps golden outputs stable.
	KeepWhitespace bool

	// KeepComments preserves comment nodes in the tree.
	KeepComments bool

	// ApplyDefaults adds DTD-defaulted attributes to elements as the
	// document is parsed (requires a DTD).
	ApplyDefaults bool

	// MaxEntityExpansion caps the cumulative bytes of internal
	// general-entity replacement text one parse may expand, across
	// content and attribute values. Recursion depth alone does not
	// bound work — a shallow chain of doubling entities ("billion
	// laughs") multiplies output exponentially — so the total is
	// budgeted too. Non-positive selects the 1 MiB default.
	MaxEntityExpansion int
}

// defaultMaxEntityExpansion is the entity-expansion budget when
// Options.MaxEntityExpansion is unset: far above any legitimate
// document's entity usage, far below an amplification attack's output.
const defaultMaxEntityExpansion = 1 << 20

// Result carries everything a parse produces.
type Result struct {
	// Doc is the document tree, renumbered in document order. It is
	// the adapter view of the document — XPath fallback, DTD
	// validation, merge and update apply operate on it — and it
	// carries the arena (Doc.Arena() returns Arena).
	Doc *dom.Document
	// Arena is the struct-of-arrays representation of the same
	// document, built at parse time: the primary artifact the serve
	// path's label, mask and unparse sweeps run over. Indexes are
	// interchangeable with Doc's preorder numbering.
	Arena *dom.Arena
	// DTD is the parsed document type definition (internal plus
	// external subset), or nil if the document has no DOCTYPE.
	DTD *dtd.DTD
}

// Parse parses a complete XML document. A leading UTF-8 byte-order
// mark is accepted and skipped.
func Parse(input string, opts Options) (*Result, error) {
	input = strings.TrimPrefix(input, "\xef\xbb\xbf")
	p := &parser{src: input, opts: opts}
	p.entBudget = p.maxEntityExpansion()
	return p.document()
}

// MustParse is Parse for known-good documents; it panics on error.
func MustParse(input string, opts Options) *Result {
	r, err := Parse(input, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseFile parses the file at path, resolving external DTDs relative to
// its directory unless opts.Loader is already set.
func ParseFile(path string, opts Options) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if opts.Loader == nil {
		opts.Loader = FileLoader{Base: filepath.Dir(path)}
	}
	return Parse(string(b), opts)
}

// parser scans its input in runs: character data, attribute values and
// names are located with byte loops and become substrings of the
// source wherever no reference or normalization intervenes, so a parse
// allocates per chunk of nodes rather than per node or per byte.
type parser struct {
	src       string
	pos       int
	opts      Options
	dtd       *dtd.DTD
	entDepth  int
	entBudget int // remaining entity-expansion bytes

	// nodes is the current slab chunk: every node the parse creates is
	// taken from its spare capacity. ptrs is the same for the exactly
	// sized Children and Attrs slices, which are assembled on stack
	// (the pending attributes and children of the open elements) and
	// copied out when an element's start tag or content ends.
	nodes     []dom.Node
	ptrs      []*dom.Node
	stack     []*dom.Node
	nodeCount int

	// Pending character data of the element being parsed: the source
	// range [textStart, textEnd) while it is one contiguous run, or the
	// scratch buffer text once a reference or a gap intervenes.
	textStart, textEnd int
	buffered           bool
	text               []byte
}

// chargeEntity debits n bytes of entity replacement text against the
// parse's cumulative expansion budget.
func (p *parser) chargeEntity(name string, n int) error {
	if n > p.entBudget {
		return p.errf("entity expansion of &%s; exceeds the %d-byte budget (billion-laughs protection; raise Options.MaxEntityExpansion if legitimate)",
			name, p.maxEntityExpansion())
	}
	p.entBudget -= n
	return nil
}

func (p *parser) maxEntityExpansion() int {
	if p.opts.MaxEntityExpansion > 0 {
		return p.opts.MaxEntityExpansion
	}
	return defaultMaxEntityExpansion
}

// errf reports a syntax error at the current position. Line and column
// (the latter counted in bytes) are derived from the input consumed so
// far; entity splicing only ever inserts at p.pos, so p.src[:p.pos] is
// exactly the text the parse has stepped over.
func (p *parser) errf(format string, args ...any) error {
	before := p.src[:p.pos]
	line := 1 + strings.Count(before, "\n")
	col := len(before) - strings.LastIndexByte(before, '\n')
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// advance moves n bytes forward; callers have checked that they exist.
func (p *parser) advance(n int) { p.pos += n }

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) consume(s string) bool {
	if p.hasPrefix(s) {
		p.advance(len(s))
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.consume(s) {
		return p.errf("expected %q, found %q", s, snippet(p.src[p.pos:]))
	}
	return nil
}

func snippet(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

func (p *parser) skipWS() bool {
	any := false
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.advance(1)
			any = true
		default:
			return any
		}
	}
	return any
}

func isNameStart(r rune) bool {
	return r == '_' || r == ':' || unicode.IsLetter(r)
}

func isNameRune(r rune) bool {
	return isNameStart(r) || r == '-' || r == '.' || unicode.IsDigit(r)
}

// asciiNameRune caches isNameRune for the ASCII bytes, so the common
// case never decodes a rune.
var asciiNameRune = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isNameRune(rune(c))
	}
	return t
}()

func (p *parser) name() (string, error) {
	start := p.pos
	r, size := utf8.DecodeRuneInString(p.src[start:])
	if size == 0 || !isNameStart(r) {
		return "", p.errf("expected name")
	}
	i := start + size
	for i < len(p.src) {
		if c := p.src[i]; c < utf8.RuneSelf {
			if !asciiNameRune[c] {
				break
			}
			i++
			continue
		}
		r, size = utf8.DecodeRuneInString(p.src[i:])
		if !isNameRune(r) {
			break
		}
		i += size
	}
	p.pos = i
	return p.src[start:i], nil
}

// document parses the whole document entity.
func (p *parser) document() (*Result, error) {
	doc := dom.NewDocument()
	if err := p.prolog(doc); err != nil {
		return nil, err
	}
	root, err := p.element(nil)
	if err != nil {
		return nil, err
	}
	doc.Node.AppendChild(root)
	// Misc after the document element: comments, PIs, whitespace.
	for {
		p.skipWS()
		if p.eof() {
			break
		}
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.comment(nil)
			if err != nil {
				return nil, err
			}
			if p.opts.KeepComments {
				doc.Node.AppendChild(c)
			}
		case p.hasPrefix("<?"):
			pi, err := p.procInst(nil)
			if err != nil {
				return nil, err
			}
			doc.Node.AppendChild(pi)
		default:
			return nil, p.errf("content after document element: %q", snippet(p.src[p.pos:]))
		}
	}
	if p.dtd != nil && p.opts.ApplyDefaults {
		applyDefaults(p.dtd, root)
	}
	doc.Renumber()
	// Flatten into the struct-of-arrays arena while the tree is hot:
	// names are interned, character data is escaped once into the
	// shared byte buffer, and every later request sweeps the arrays.
	arena := doc.BuildArena()
	return &Result{Doc: doc, Arena: arena, DTD: p.dtd}, nil
}

// applyDefaults adds DTD-defaulted attributes without validating.
func applyDefaults(d *dtd.DTD, n *dom.Node) {
	for _, def := range d.Attlists[n.Name] {
		if def.Default != dtd.ValueDefault && def.Default != dtd.FixedDefault {
			continue
		}
		if _, present := n.Attr(def.Name); !present {
			a := n.SetAttr(def.Name, def.Value)
			a.Defaulted = true
		}
	}
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			applyDefaults(d, c)
		}
	}
}

func (p *parser) prolog(doc *dom.Document) error {
	if p.hasPrefix("<?xml") && len(p.src) > p.pos+5 &&
		(p.src[p.pos+5] == ' ' || p.src[p.pos+5] == '\t' || p.src[p.pos+5] == '\r' || p.src[p.pos+5] == '\n') {
		if err := p.xmlDecl(doc); err != nil {
			return err
		}
	}
	for {
		p.skipWS()
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.comment(nil)
			if err != nil {
				return err
			}
			if p.opts.KeepComments {
				doc.Node.AppendChild(c)
			}
		case p.hasPrefix("<?"):
			pi, err := p.procInst(nil)
			if err != nil {
				return err
			}
			doc.Node.AppendChild(pi)
		case p.hasPrefix("<!DOCTYPE"):
			if doc.DocType != nil {
				return p.errf("multiple DOCTYPE declarations")
			}
			if err := p.doctype(doc); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (p *parser) xmlDecl(doc *dom.Document) error {
	p.advance(len("<?xml"))
	for {
		had := p.skipWS()
		if p.consume("?>") {
			if doc.Version == "" {
				return p.errf("XML declaration missing version")
			}
			return nil
		}
		if !had {
			return p.errf("malformed XML declaration")
		}
		key, err := p.name()
		if err != nil {
			return err
		}
		p.skipWS()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipWS()
		val, err := p.quotedLiteral()
		if err != nil {
			return err
		}
		switch key {
		case "version":
			doc.Version = val
		case "encoding":
			low := strings.ToLower(val)
			if low != "utf-8" && low != "utf8" && low != "us-ascii" && low != "ascii" {
				return p.errf("unsupported encoding %q (parser reads UTF-8)", val)
			}
			doc.Encoding = val
		case "standalone":
			if val != "yes" && val != "no" {
				return p.errf("standalone must be yes or no, got %q", val)
			}
			doc.Standalone = val
		default:
			return p.errf("unknown XML declaration attribute %q", key)
		}
	}
}

// quotedLiteral reads a quoted string without reference expansion.
func (p *parser) quotedLiteral() (string, error) {
	q := p.peek()
	if q != '\'' && q != '"' {
		return "", p.errf("expected quoted literal")
	}
	p.advance(1)
	start := p.pos
	i := strings.IndexByte(p.src[p.pos:], q)
	if i < 0 {
		return "", p.errf("unterminated literal")
	}
	val := p.src[start : start+i]
	p.advance(i + 1)
	return val, nil
}

func (p *parser) doctype(doc *dom.Document) error {
	p.advance(len("<!DOCTYPE"))
	p.skipWS()
	name, err := p.name()
	if err != nil {
		return err
	}
	dt := &dom.DocType{Name: name}
	p.skipWS()
	switch {
	case p.hasPrefix("SYSTEM"):
		p.advance(len("SYSTEM"))
		p.skipWS()
		dt.SystemID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
	case p.hasPrefix("PUBLIC"):
		p.advance(len("PUBLIC"))
		p.skipWS()
		dt.PublicID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
		p.skipWS()
		dt.SystemID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
	}
	p.skipWS()
	if p.peek() == '[' {
		p.advance(1)
		start := p.pos
		depth := 0
		for {
			if p.eof() {
				return p.errf("unterminated DOCTYPE internal subset")
			}
			c := p.peek()
			if c == '<' {
				depth++
			} else if c == '>' && depth > 0 {
				depth--
			} else if c == ']' && depth == 0 {
				break
			}
			// Quoted literals inside declarations may contain ']' or
			// '<'; skip them atomically.
			if c == '"' || c == '\'' {
				q := c
				p.advance(1)
				i := strings.IndexByte(p.src[p.pos:], q)
				if i < 0 {
					return p.errf("unterminated literal in internal subset")
				}
				p.advance(i + 1)
				continue
			}
			p.advance(1)
		}
		dt.InternalSubset = p.src[start:p.pos]
		p.advance(1) // ']'
		p.skipWS()
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	doc.DocType = dt

	// Parse the subsets: internal first (its declarations are binding),
	// then the external subset if a loader can fetch it.
	p.dtd = dtd.NewDTD()
	p.dtd.Name = name
	if dt.InternalSubset != "" {
		if err := p.dtd.ParseSubset(dt.InternalSubset); err != nil {
			return p.errf("internal subset: %v", err)
		}
	}
	if dt.SystemID != "" && p.opts.Loader != nil {
		ext, err := p.opts.Loader.LoadDTD(dt.SystemID)
		if err != nil {
			return p.errf("loading external subset %q: %v", dt.SystemID, err)
		}
		if err := p.dtd.ParseSubset(ext); err != nil {
			return p.errf("external subset %q: %v", dt.SystemID, err)
		}
	}
	return nil
}

// newNode returns a node taken from the current slab chunk, starting a
// new chunk when it is full.
func (p *parser) newNode(typ dom.NodeType, name, data string, parent *dom.Node) *dom.Node {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]dom.Node, 0, p.chunkSize(1))
	}
	p.nodes = p.nodes[:len(p.nodes)+1]
	p.nodeCount++
	n := &p.nodes[len(p.nodes)-1]
	n.Type, n.Name, n.Data, n.Parent = typ, name, data, parent
	return n
}

// chunkSize sizes the next slab chunk from the input: the first chunk
// assumes a sparse document, later ones extrapolate the node density
// of the input consumed so far over the rest, with a little slack, so
// a typical parse takes two or three chunks. The result is at least
// need.
func (p *parser) chunkSize(need int) int {
	n := len(p.src)/128 + 16
	if p.pos > 0 && p.nodeCount > 0 {
		rest := (len(p.src) - p.pos) * p.nodeCount / p.pos
		n = rest + rest/16 + 16
	}
	return max(n, need)
}

// popNodes moves the pending nodes above mark off the stack into an
// exactly sized slice of the pointer slab; nil when there are none, as
// for a node that never had children appended.
func (p *parser) popNodes(mark int) []*dom.Node {
	n := len(p.stack) - mark
	if n == 0 {
		return nil
	}
	if cap(p.ptrs)-len(p.ptrs) < n {
		p.ptrs = make([]*dom.Node, 0, p.chunkSize(n))
	}
	k := len(p.ptrs)
	p.ptrs = append(p.ptrs, p.stack[mark:]...)
	p.stack = p.stack[:mark]
	// Cap the slice at its length so a later append (attribute
	// defaulting, edits) reallocates instead of overwriting a neighbour.
	return p.ptrs[k:len(p.ptrs):len(p.ptrs)]
}

// element parses an element and its content, starting at '<'.
func (p *parser) element(parent *dom.Node) (*dom.Node, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	el := p.newNode(dom.ElementNode, name, "", parent)
	mark := len(p.stack)
	for {
		had := p.skipWS()
		switch {
		case p.consume("/>"):
			el.Attrs = p.popNodes(mark)
			return el, nil
		case p.consume(">"):
			el.Attrs = p.popNodes(mark)
			if err := p.content(el); err != nil {
				return nil, err
			}
			return el, p.endTag(name)
		default:
			if !had {
				return nil, p.errf("malformed start tag for %q", name)
			}
			aname, err := p.name()
			if err != nil {
				return nil, err
			}
			for _, a := range p.stack[mark:] {
				if a.Name == aname {
					return nil, p.errf("duplicate attribute %q on element %q", aname, name)
				}
			}
			p.skipWS()
			if err := p.expect("="); err != nil {
				return nil, err
			}
			p.skipWS()
			aval, err := p.attValue()
			if err != nil {
				return nil, err
			}
			p.stack = append(p.stack, p.newNode(dom.AttributeNode, aname, aval, el))
		}
	}
}

func (p *parser) endTag(name string) error {
	if err := p.expect("</"); err != nil {
		return err
	}
	got, err := p.name()
	if err != nil {
		return err
	}
	if got != name {
		return p.errf("mismatched end tag: expected </%s>, got </%s>", name, got)
	}
	p.skipWS()
	return p.expect(">")
}

// attValue parses a quoted attribute value with reference expansion and
// attribute-value normalization (whitespace characters become spaces).
// A value with no reference and no character to normalize is returned
// as a substring of the input.
func (p *parser) attValue() (string, error) {
	q := p.peek()
	if q != '\'' && q != '"' {
		return "", p.errf("expected quoted attribute value")
	}
	p.advance(1)
	start := p.pos
	buf, buffered := p.text[:0], false
	for {
		i := p.pos
		for i < len(p.src) {
			if c := p.src[i]; c == q || c == '<' || c == '&' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			i++
		}
		if buffered {
			buf = append(buf, p.src[p.pos:i]...)
		}
		p.pos = i
		if p.eof() {
			return "", p.errf("unterminated attribute value")
		}
		c := p.src[p.pos]
		switch c {
		case q:
			p.advance(1)
			if !buffered {
				return p.src[start : p.pos-1], nil
			}
			p.text = buf
			return string(buf), nil
		case '<':
			return "", p.errf("'<' not allowed in attribute value")
		}
		if !buffered {
			buf, buffered = append(buf, p.src[start:p.pos]...), true
		}
		if c == '&' {
			s, err := p.reference(true)
			if err != nil {
				return "", err
			}
			buf = append(buf, s...)
		} else {
			buf = append(buf, ' ')
			p.advance(1)
		}
	}
}

// reference expands a reference beginning with '&'. In attribute values
// (inAttr), internal entity replacement text is used literally; markup
// inside it is forbidden. In content, internal entities whose text
// contains markup are spliced into the input and reparsed.
func (p *parser) reference(inAttr bool) (string, error) {
	if r, n, ok := dtd.DecodeCharRef(p.src[p.pos:]); ok {
		p.advance(n)
		return string(r), nil
	}
	if p.hasPrefix("&#") {
		return "", p.errf("malformed character reference")
	}
	p.advance(1) // '&'
	name, err := p.name()
	if err != nil {
		return "", err
	}
	if err := p.expect(";"); err != nil {
		return "", err
	}
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return `"`, nil
	}
	var ent *dtd.EntityDecl
	if p.dtd != nil {
		ent = p.dtd.Entities[name]
	}
	if ent == nil {
		return "", p.errf("undeclared entity &%s;", name)
	}
	if !ent.IsInternal() {
		if ent.NDataName != "" {
			return "", p.errf("reference to unparsed entity &%s;", name)
		}
		// External parsed entities are not fetched (physical structure
		// is out of the paper's scope); treat as empty.
		return "", nil
	}
	if err := p.chargeEntity(name, len(ent.Value)); err != nil {
		return "", err
	}
	if inAttr {
		if strings.ContainsAny(ent.Value, "<") {
			return "", p.errf("entity &%s; contains '<', not allowed in attribute value", name)
		}
		return p.expandEntityText(ent.Value, 0)
	}
	if !strings.ContainsAny(ent.Value, "<&") {
		return ent.Value, nil
	}
	// Replacement text contains markup or further references: splice it
	// into the input so it is parsed in place.
	if p.entDepth > 32 {
		return "", p.errf("entity nesting too deep expanding &%s; (recursion?)", name)
	}
	p.entDepth++
	p.src = p.src[:p.pos] + ent.Value + p.src[p.pos:]
	return "", nil
}

// expandEntityText expands character and general entity references in
// entity replacement text used inside attribute values. Nested
// expansions are charged against the same cumulative budget as content
// expansions.
func (p *parser) expandEntityText(s string, depth int) (string, error) {
	if depth > 32 {
		return "", fmt.Errorf("xml: entity recursion in attribute value")
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if r, n, ok := dtd.DecodeCharRef(s[i:]); ok {
			b.WriteRune(r)
			i += n
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("xml: malformed reference in entity text")
		}
		name := s[i+1 : i+end]
		i += end + 1
		switch name {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "apos":
			b.WriteByte('\'')
		case "quot":
			b.WriteByte('"')
		default:
			var ent *dtd.EntityDecl
			if p.dtd != nil {
				ent = p.dtd.Entities[name]
			}
			if ent == nil || !ent.IsInternal() {
				return "", fmt.Errorf("xml: undeclared entity &%s; in attribute value", name)
			}
			if err := p.chargeEntity(name, len(ent.Value)); err != nil {
				return "", err
			}
			exp, err := p.expandEntityText(ent.Value, depth+1)
			if err != nil {
				return "", err
			}
			b.WriteString(exp)
		}
	}
	return b.String(), nil
}

// content parses element content until the matching end tag.
// Character data is scanned a run at a time: up to the next '<', '&' or
// "]]>", so a text node with no reference is a substring of the input.
func (p *parser) content(el *dom.Node) error {
	mark := len(p.stack)
	for {
		if p.eof() {
			return p.errf("unexpected end of input inside element %q", el.Name)
		}
		switch c := p.src[p.pos]; {
		case c == '<':
			if p.hasPrefix("</") {
				p.flushText(el)
				el.Children = p.popNodes(mark)
				return nil
			}
			child, err := p.markup(el)
			if err != nil {
				return err
			}
			if child != nil {
				p.stack = append(p.stack, child)
			}
		case c == '&':
			s, err := p.reference(false)
			if err != nil {
				return err
			}
			p.addText(s)
		case p.hasPrefix("]]>"):
			return p.errf("']]>' not allowed in content")
		default:
			i := p.pos + 1
			for i < len(p.src) {
				if c := p.src[i]; c == '<' || c == '&' || c == ']' && strings.HasPrefix(p.src[i:], "]]>") {
					break
				}
				i++
			}
			p.addRun(p.pos, i)
			p.pos = i
		}
	}
}

// markup parses the comment, CDATA section, processing instruction or
// child element starting at '<' inside el. It returns the node to
// append, or nil for a dropped comment.
func (p *parser) markup(el *dom.Node) (*dom.Node, error) {
	switch {
	case p.hasPrefix("<!--"):
		p.flushText(el)
		c, err := p.comment(el)
		if err != nil || !p.opts.KeepComments {
			return nil, err
		}
		return c, nil
	case p.hasPrefix("<![CDATA["):
		cd, err := p.cdata(el)
		if err != nil {
			return nil, err
		}
		p.flushText(el)
		return cd, nil
	case p.hasPrefix("<?"):
		p.flushText(el)
		return p.procInst(el)
	}
	p.flushText(el)
	return p.element(el)
}

// addRun appends the input bytes [i, j) to the pending character data,
// extending the pending source range when the run continues it.
func (p *parser) addRun(i, j int) {
	switch {
	case p.buffered:
		p.text = append(p.text, p.src[i:j]...)
	case p.textStart == p.textEnd:
		p.textStart, p.textEnd = i, j
	case p.textEnd == i:
		p.textEnd = j
	default:
		p.addText(p.src[i:j])
	}
}

// addText appends expanded text to the pending character data, moving
// it into the scratch buffer.
func (p *parser) addText(s string) {
	if s == "" {
		return
	}
	if !p.buffered {
		p.text = append(p.text[:0], p.src[p.textStart:p.textEnd]...)
		p.buffered = true
	}
	p.text = append(p.text, s...)
}

// flushText turns the pending character data into a text child of el,
// dropping it when it is whitespace only (unless KeepWhitespace).
func (p *parser) flushText(el *dom.Node) {
	s := p.src[p.textStart:p.textEnd]
	if p.buffered {
		s = string(p.text)
	}
	p.textStart, p.textEnd, p.buffered = 0, 0, false
	if s == "" || !p.opts.KeepWhitespace && strings.TrimSpace(s) == "" {
		return
	}
	p.stack = append(p.stack, p.newNode(dom.TextNode, "", s, el))
}

func (p *parser) comment(parent *dom.Node) (*dom.Node, error) {
	p.advance(4) // "<!--"
	end := strings.Index(p.src[p.pos:], "-->")
	if end < 0 {
		return nil, p.errf("unterminated comment")
	}
	body := p.src[p.pos : p.pos+end]
	if strings.Contains(body, "--") || strings.HasSuffix(body, "-") {
		return nil, p.errf("comment text must not contain '--' or end with '-'")
	}
	p.advance(end + 3)
	return p.newNode(dom.CommentNode, "", body, parent), nil
}

func (p *parser) cdata(parent *dom.Node) (*dom.Node, error) {
	p.advance(len("<![CDATA["))
	end := strings.Index(p.src[p.pos:], "]]>")
	if end < 0 {
		return nil, p.errf("unterminated CDATA section")
	}
	body := p.src[p.pos : p.pos+end]
	p.advance(end + 3)
	return p.newNode(dom.CDATANode, "", body, parent), nil
}

func (p *parser) procInst(parent *dom.Node) (*dom.Node, error) {
	p.advance(2) // "<?"
	target, err := p.name()
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(target, "xml") {
		return nil, p.errf("processing instruction target %q is reserved", target)
	}
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return nil, p.errf("unterminated processing instruction")
	}
	data := strings.TrimLeft(p.src[p.pos:p.pos+end], " \t\r\n")
	p.advance(end + 2)
	return p.newNode(dom.ProcessingInstructionNode, target, data, parent), nil
}
