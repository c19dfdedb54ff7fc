package dtd

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"xmlsec/internal/dom"
)

// ValidationError is one violation of the DTD by a document.
type ValidationError struct {
	// Node is the offending node (element or attribute), when known.
	Node *dom.Node
	// Msg describes the violation.
	Msg string
}

func (e *ValidationError) Error() string {
	if e.Node != nil {
		return fmt.Sprintf("dtd: %s: %s", e.Node.Path(), e.Msg)
	}
	return "dtd: " + e.Msg
}

// ValidationErrors aggregates all violations found in one pass.
type ValidationErrors []*ValidationError

func (v ValidationErrors) Error() string {
	switch len(v) {
	case 0:
		return "dtd: no errors"
	case 1:
		return v[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dtd: %d validity errors:", len(v))
	for _, e := range v {
		b.WriteString("\n\t")
		b.WriteString(e.Error())
	}
	return b.String()
}

// ValidateOptions tunes validation behaviour.
type ValidateOptions struct {
	// ApplyDefaults inserts attribute nodes for defaulted attributes
	// that are absent from the document (marked Defaulted), as a
	// validating XML processor must.
	ApplyDefaults bool

	// IgnoreIDs skips ID uniqueness and IDREF resolution checks. The
	// paper's pruning can legitimately remove IDREF targets; the
	// security processor validates views with IgnoreIDs set.
	IgnoreIDs bool
}

// Validate checks doc against the DTD and returns all violations (nil if
// the document is valid). With opts.ApplyDefaults it also mutates the
// document, adding defaulted attributes.
func (d *DTD) Validate(doc *dom.Document, opts ValidateOptions) ValidationErrors {
	v := &validator{dtd: d, opts: opts, ids: make(map[string]*dom.Node)}
	root := doc.DocumentElement()
	if root == nil {
		v.errf(nil, "document has no root element")
		return v.errs
	}
	if d.Name != "" && root.Name != d.Name {
		v.errf(root, "root element is %q, DOCTYPE declares %q", root.Name, d.Name)
	}
	v.element(root)
	if !opts.IgnoreIDs {
		v.resolveIDRefs()
	}
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs
}

// ValidateEdit is Validate (strict, defaults already applied) for a
// document that was valid before an edit with the given footprint:
// touched, the elements whose attribute or child list changed, and
// inserted, the roots of the inserted subtrees (see dom.Edit). Only
// their content models and attributes can have become invalid, so only
// those are checked — each touched element alone, every element of each
// inserted subtree — unless an inserted root is the document node,
// which validates the whole document. ID uniqueness and IDREF
// resolution span the document, so when the DTD declares any ID, IDREF
// or IDREFS attribute that pass still walks every element.
func (d *DTD) ValidateEdit(doc *dom.Document, touched, inserted []*dom.Node) ValidationErrors {
	for _, r := range inserted {
		if r.Type == dom.DocumentNode {
			return d.Validate(doc, ValidateOptions{})
		}
	}
	v := &validator{dtd: d} // no ids map: the checks below register none
	root := doc.DocumentElement()
	if root == nil {
		v.errf(nil, "document has no root element")
		return v.errs
	}
	if d.Name != "" && root.Name != d.Name {
		v.errf(root, "root element is %q, DOCTYPE declares %q", root.Name, d.Name)
	}
	for _, t := range touched {
		v.check(t)
	}
	for _, r := range inserted {
		if r.Type == dom.ElementNode {
			v.element(r)
		}
	}
	if d.declaresIDs() {
		v.ids = make(map[string]*dom.Node)
		v.collectIDs(root)
		v.resolveIDRefs()
	}
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs
}

// declaresIDs reports whether any attribute is declared ID, IDREF or
// IDREFS.
func (d *DTD) declaresIDs() bool {
	for _, defs := range d.Attlists {
		for _, def := range defs {
			if def.Type == IDType || def.Type == IDREFType || def.Type == IDREFSType {
				return true
			}
		}
	}
	return false
}

// collectIDs registers the ID and IDREF(S) values of the subtree at n,
// as the attribute checks of a whole-document validation do; values
// that are not Names were reported by those checks.
func (v *validator) collectIDs(n *dom.Node) {
	for _, a := range n.Attrs {
		def := v.dtd.AttDef(n.Name, a.Name)
		if def == nil {
			continue
		}
		switch def.Type {
		case IDType:
			if val := normalizeTokens(a.Data); IsName(val) {
				v.registerID(a, val)
			}
		case IDREFType:
			if val := normalizeTokens(a.Data); IsName(val) {
				v.idrefs = append(v.idrefs, idref{a, val})
			}
		case IDREFSType:
			eachToken(normalizeTokens(a.Data), func(tok string) {
				if IsName(tok) {
					v.idrefs = append(v.idrefs, idref{a, tok})
				}
			})
		}
	}
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			v.collectIDs(c)
		}
	}
}

// registerID records an ID value, reporting a second use.
func (v *validator) registerID(a *dom.Node, val string) {
	if prev := v.ids[val]; prev != nil {
		v.errf(a, "ID %q already used at %s", val, prev.Path())
	} else {
		v.ids[val] = a
	}
}

// resolveIDRefs reports every IDREF that matches no registered ID.
func (v *validator) resolveIDRefs() {
	for _, ref := range v.idrefs {
		if v.ids[ref.id] == nil {
			v.errf(ref.node, "IDREF %q matches no ID in the document", ref.id)
		}
	}
}

type idref struct {
	node *dom.Node
	id   string
}

type validator struct {
	dtd    *DTD
	opts   ValidateOptions
	errs   ValidationErrors
	ids    map[string]*dom.Node
	idrefs []idref

	// Scratch reused across elements: the child-name sequence of the
	// element being checked and the content-model matcher's state.
	seq   []string
	match matchState
}

func (v *validator) errf(n *dom.Node, format string, args ...any) {
	v.errs = append(v.errs, &ValidationError{Node: n, Msg: fmt.Sprintf(format, args...)})
}

func (v *validator) element(n *dom.Node) {
	v.check(n)
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			v.element(c)
		}
	}
}

// check validates element n's content model and attributes.
func (v *validator) check(n *dom.Node) {
	decl := v.dtd.Element(n.Name)
	if decl == nil {
		v.errf(n, "element %q is not declared", n.Name)
	} else {
		v.content(n, decl)
	}
	v.attributes(n)
}

func (v *validator) content(n *dom.Node, decl *ElementDecl) {
	switch decl.Kind {
	case EmptyContent:
		for _, c := range n.Children {
			switch c.Type {
			case dom.ElementNode:
				v.errf(n, "element %q is declared EMPTY but contains element %q", n.Name, c.Name)
				return
			case dom.TextNode, dom.CDATANode:
				if strings.TrimSpace(c.Data) != "" {
					v.errf(n, "element %q is declared EMPTY but contains character data", n.Name)
					return
				}
				// XML 1.0 is strict here: EMPTY admits no content at
				// all, even whitespace; we are lenient about
				// whitespace introduced by pretty-printing.
			}
		}
	case AnyContent:
		for _, c := range n.Children {
			if c.Type == dom.ElementNode && v.dtd.Element(c.Name) == nil {
				v.errf(c, "element %q (inside ANY) is not declared", c.Name)
			}
		}
	case MixedContent:
		for _, c := range n.Children {
			if c.Type == dom.ElementNode && !contains(decl.Mixed, c.Name) {
				v.errf(c, "element %q not allowed in mixed content of %q", c.Name, n.Name)
			}
		}
	case ElementContent:
		seq := v.seq[:0]
		for _, c := range n.Children {
			switch c.Type {
			case dom.ElementNode:
				seq = append(seq, c.Name)
			case dom.TextNode, dom.CDATANode:
				if strings.TrimSpace(c.Data) != "" {
					v.errf(n, "character data not allowed in element content of %q", n.Name)
				}
			}
		}
		v.seq = seq
		if ok, at := decl.automatonFor().matches(seq, &v.match); !ok {
			if at >= len(seq) {
				v.errf(n, "content of %q ends prematurely: (%s) does not complete %s",
					n.Name, strings.Join(seq, ","), decl.Model)
			} else {
				v.errf(n, "child %q at position %d not allowed by content model %s of %q",
					seq[at], at+1, decl.Model, n.Name)
			}
		}
	}
}

func (v *validator) attributes(n *dom.Node) {
	defs := v.dtd.Attlists[n.Name]
	for _, a := range n.Attrs {
		def := v.dtd.AttDef(n.Name, a.Name)
		if def == nil {
			v.errf(a, "attribute %q is not declared for element %q", a.Name, n.Name)
			continue
		}
		v.attrValue(a, def)
	}
	for _, def := range defs {
		if def.Default != RequiredDefault {
			continue
		}
		if _, present := n.Attr(def.Name); !present {
			v.errf(n, "required attribute %q of element %q is missing", def.Name, n.Name)
		}
	}
	if v.opts.ApplyDefaults {
		v.dtd.defaultAttrs(n)
	}
}

// ApplyDefaults adds the declared default and #FIXED values of the
// attributes missing from each element of the subtree rooted at n,
// marking them Defaulted — the attribute defaulting of a validating
// XML processor, without the validation. The parser's ApplyDefaults
// option and the commit of an edited document both run it.
func (d *DTD) ApplyDefaults(n *dom.Node) {
	d.defaultAttrs(n)
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			d.ApplyDefaults(c)
		}
	}
}

// ApplyDefaultsEdit applies attribute defaults after an edit with the
// given footprint (see ValidateEdit): to each touched element alone —
// one that lost an attribute gets its default back — and to every
// element of each inserted subtree (all of them when a root is the
// document node).
func (d *DTD) ApplyDefaultsEdit(touched, inserted []*dom.Node) {
	for _, t := range touched {
		d.defaultAttrs(t)
	}
	for _, r := range inserted {
		if r.Type == dom.ElementNode || r.Type == dom.DocumentNode {
			d.ApplyDefaults(r)
		}
	}
}

// defaultAttrs is ApplyDefaults for element n alone.
func (d *DTD) defaultAttrs(n *dom.Node) {
	for _, def := range d.Attlists[n.Name] {
		if def.Default != ValueDefault && def.Default != FixedDefault {
			continue
		}
		if _, present := n.Attr(def.Name); !present {
			a := n.SetAttr(def.Name, def.Value)
			a.Defaulted = true
		}
	}
}

func (v *validator) attrValue(a *dom.Node, def *AttDef) {
	val := a.Data
	if def.Type != CDATAType {
		// Tokenized types get additional whitespace normalization.
		val = normalizeTokens(val)
	}
	switch def.Type {
	case CDATAType:
		// any value
	case IDType:
		if !IsName(val) {
			v.errf(a, "ID value %q is not a Name", val)
		} else if v.ids != nil {
			v.registerID(a, val)
		}
	case IDREFType:
		if !IsName(val) {
			v.errf(a, "IDREF value %q is not a Name", val)
		} else if v.ids != nil {
			v.idrefs = append(v.idrefs, idref{a, val})
		}
	case IDREFSType:
		eachToken(val, func(tok string) {
			if !IsName(tok) {
				v.errf(a, "IDREFS token %q is not a Name", tok)
			} else if v.ids != nil {
				v.idrefs = append(v.idrefs, idref{a, tok})
			}
		})
	case NMTokenType:
		if !IsNmtoken(val) {
			v.errf(a, "NMTOKEN value %q is not a name token", val)
		}
	case NMTokensType:
		if val == "" {
			v.errf(a, "NMTOKENS value is empty")
		}
		eachToken(val, func(tok string) {
			if !IsNmtoken(tok) {
				v.errf(a, "NMTOKENS token %q is not a name token", tok)
			}
		})
	case EntityType:
		v.entityName(a, val)
	case EntitiesType:
		eachToken(val, func(tok string) { v.entityName(a, tok) })
	case EnumType:
		if !contains(def.Enum, val) {
			v.errf(a, "value %q not in enumeration (%s)", val, strings.Join(def.Enum, "|"))
		}
	case NotationType:
		if !contains(def.Enum, val) {
			v.errf(a, "value %q not in notation list (%s)", val, strings.Join(def.Enum, "|"))
		} else if v.dtd.Notations[val] == nil {
			v.errf(a, "notation %q is not declared", val)
		}
	}
	if def.Default == FixedDefault && a.Data != def.Value {
		v.errf(a, "attribute %q is #FIXED %q but has value %q", def.Name, def.Value, a.Data)
	}
}

func (v *validator) entityName(a *dom.Node, name string) {
	ent := v.dtd.Entities[name]
	switch {
	case ent == nil:
		v.errf(a, "entity %q is not declared", name)
	case ent.NDataName == "":
		v.errf(a, "entity %q is not an unparsed entity", name)
	case v.dtd.Notations[ent.NDataName] == nil:
		v.errf(a, "entity %q uses undeclared notation %q", name, ent.NDataName)
	}
}

// normalizeTokens applies tokenized-type normalization: whitespace runs
// collapse to one space and leading and trailing whitespace go. An
// ASCII value that is already normal is returned as is.
func normalizeTokens(val string) string {
	for i := 0; i < len(val); i++ {
		switch c := val[i]; {
		case c >= utf8.RuneSelf, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r',
			c == ' ' && (i == 0 || i == len(val)-1 || val[i+1] == ' '):
			return strings.Join(strings.Fields(val), " ")
		}
	}
	return val
}

// eachToken calls f on each token of a normalized value, in order.
func eachToken(val string, f func(tok string)) {
	for val != "" {
		tok, rest, _ := strings.Cut(val, " ")
		f(tok)
		val = rest
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
