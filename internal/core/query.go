package core

import (
	"context"
	"fmt"

	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/xpath"
)

// Query evaluates an XPath expression against the view — not against
// the original document — so query answers are safe by construction:
// whatever a requester cannot see in the view, no query can select.
// This implements the paper's first "further work" item (Section 8),
// requests in the form of generic queries, with the obvious security
// semantics: query(doc) ≡ query(view(doc)).
//
// The expression is evaluated against the lazily materialized view
// tree rather than node-set-filtered through the mask: predicates,
// string-values and path steps would otherwise run over the shared
// original and could leak hidden content (for example
// //x[@secret='v'] observing a masked attribute). Materializing gives
// the query exactly the view's evaluation domain, and the sync.Once
// cache amortizes it across queries on the same view.
//
// The result is a node-set in document order; nodes belong to the
// (materialized) view document and may be serialized with
// dom.MarkupString.
func (v *View) Query(expr string) ([]*dom.Node, error) {
	return v.QueryCtx(context.Background(), expr)
}

// QueryCtx is Query under a request context: the view materialization
// runs as the materialize stage, and a traced context records the
// XPath evaluation as a span.
func (v *View) QueryCtx(ctx context.Context, expr string) ([]*dom.Node, error) {
	p, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	if v.Empty() {
		return nil, nil
	}
	st := v.stages.Begin(ctx, obs.StageMaterialize)
	qdoc := v.Materialize()
	st.End()
	if qdoc.DocumentElement() == nil {
		return nil, nil
	}
	return p.SelectDocCtx(ctx, qdoc)
}

// QueryResult wraps query matches as an XML document
// <result count="n" query="..."> with one <match> child per selected
// node (elements are embedded as markup; attributes and text become
// <match name="...">value</match>).
func (v *View) QueryResult(expr string) (*dom.Document, error) {
	return v.QueryResultCtx(context.Background(), expr)
}

// QueryResultCtx is QueryResult under a (possibly traced) context.
func (v *View) QueryResultCtx(ctx context.Context, expr string) (*dom.Document, error) {
	nodes, err := v.QueryCtx(ctx, expr)
	if err != nil {
		return nil, err
	}
	doc := dom.NewDocument()
	root := dom.NewElement("result")
	root.SetAttr("query", expr)
	root.SetAttr("count", fmt.Sprintf("%d", len(nodes)))
	for _, n := range nodes {
		m := dom.NewElement("match")
		switch n.Type {
		case dom.ElementNode:
			m.AppendChild(n.Clone())
		case dom.AttributeNode:
			m.SetAttr("name", n.Name)
			m.AppendChild(dom.NewText(n.Data))
		default:
			m.AppendChild(dom.NewText(n.Data))
		}
		root.AppendChild(m)
	}
	doc.SetDocumentElement(root)
	doc.Renumber()
	return doc, nil
}
