package core

import (
	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
)

// NaiveLabel computes the same final labels as Label, but without the
// paper's efficiency machinery: it is Figure 2's per-node definition,
// evaluated over the pointer tree. Followed by PruneDoc on a copy of
// the document it is the specification oracle the view pipeline is
// tested against, and it is the baseline for experiment E5 ("fast
// on-line computation" of views): correctness-equivalent, so the
// benchmark comparison isolates the algorithmic choices.
//
// Two ingredients of the fast path can be disabled independently:
//
//   - recursive propagation (always off here): instead of one preorder
//     pass pushing recursive signs down, every node climbs its ancestor
//     chain to find the recursive authorizations in force;
//   - set-at-a-time object evaluation (off unless memoize): instead of
//     evaluating each authorization's path expression once per request,
//     the naive evaluator re-runs it for every node it examines.
//
// NaiveLabel(req, doc, true) therefore measures "no propagation, shared
// node-sets" and NaiveLabel(req, doc, false) measures the fully per-node
// strawman.
func (e *Engine) NaiveLabel(req Request, doc *dom.Document, memoize bool) (*Labeling, error) {
	axml, adtd, err := e.applicable(req)
	if err != nil {
		return nil, err
	}
	pol := e.PolicyFor(req.URI)
	nl := &naiveLabeler{
		h:    e.Hierarchy,
		rule: pol.Conflict,
		axml: axml,
		adtd: adtd,
		doc:  doc,
		out:  newLabeling(doc.NodeCount()),
	}
	if memoize {
		nl.sets = make(map[*authz.Authorization]map[*dom.Node]bool)
	}
	root := doc.DocumentElement()
	if root == nil {
		return nl.out, nil
	}
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		*nl.out.at(n) = *nl.finalLabel(n)
		for _, a := range n.Attrs {
			*nl.out.at(a) = *nl.finalLabel(a)
		}
		for _, c := range n.Children {
			if c.Type == dom.ElementNode {
				walk(c)
			}
		}
	}
	walk(root)
	return nl.out, nil
}

type naiveLabeler struct {
	h    subjects.Hierarchy
	rule ConflictRule
	axml []*authz.Authorization
	adtd []*authz.Authorization
	doc  *dom.Document
	sets map[*authz.Authorization]map[*dom.Node]bool // nil = no memoization
	out  *Labeling
}

// protects reports whether authorization a names node n, re-evaluating
// the path expression unless memoization is on.
func (nl *naiveLabeler) protects(a *authz.Authorization, n *dom.Node) bool {
	if nl.sets != nil {
		set := nl.sets[a]
		if set == nil {
			set = make(map[*dom.Node]bool)
			nodes, err := a.SelectNodes(nl.doc)
			if err == nil {
				for _, m := range nodes {
					set[m] = true
				}
			}
			nl.sets[a] = set
		}
		return set[n]
	}
	nodes, err := a.SelectNodes(nl.doc)
	if err != nil {
		return false
	}
	for _, m := range nodes {
		if m == n {
			return true
		}
	}
	return false
}

// ownLabel computes the initial 6-tuple of a node by scanning every
// applicable authorization.
func (nl *naiveLabeler) ownLabel(n *dom.Node) Label {
	var per [4][]*authz.Authorization
	var dl, dr []*authz.Authorization
	for _, a := range nl.axml {
		if !nl.protects(a, n) {
			continue
		}
		t := a.Type
		if n.Type == dom.AttributeNode {
			switch t {
			case authz.Recursive:
				t = authz.Local
			case authz.RecursiveWeak:
				t = authz.LocalWeak
			}
		}
		per[t] = append(per[t], a)
	}
	for _, a := range nl.adtd {
		if !nl.protects(a, n) {
			continue
		}
		if a.Type.IsRecursive() && n.Type != dom.AttributeNode {
			dr = append(dr, a)
		} else {
			dl = append(dl, a)
		}
	}
	sign := func(auths []*authz.Authorization) Sign {
		if len(auths) == 0 {
			return Epsilon
		}
		if len(auths) > 1 {
			auths = subjects.MostSpecific(nl.h, auths, func(a *authz.Authorization) subjects.Subject {
				return a.Subject
			})
		}
		pos, neg := 0, 0
		for _, a := range auths {
			if a.Sign == authz.Permit {
				pos++
			} else {
				neg++
			}
		}
		return nl.rule.resolve(pos, neg)
	}
	return Label{
		L: sign(per[authz.Local]), R: sign(per[authz.Recursive]),
		LW: sign(per[authz.LocalWeak]), RW: sign(per[authz.RecursiveWeak]),
		LD: sign(dl), RD: sign(dr),
	}
}

// recursiveInForce climbs from n to the root looking for the nearest
// element whose own label carries a recursive sign (strong or weak for
// the instance channel, RD for the schema channel), re-deriving what
// the fast path maintains incrementally.
func (nl *naiveLabeler) recursiveInForce(n *dom.Node) (r, rw, rd Sign) {
	foundInst, foundSchema := false, false
	for m := n; m != nil && m.Type == dom.ElementNode; m = m.Parent {
		own := nl.ownLabel(m)
		if !foundInst && (own.R != Epsilon || own.RW != Epsilon) {
			r, rw = own.R, own.RW
			foundInst = true
		}
		if !foundSchema && own.RD != Epsilon {
			rd = own.RD
			foundSchema = true
		}
		if foundInst && foundSchema {
			return
		}
	}
	return
}

// finalLabel computes the node's final label from first principles.
func (nl *naiveLabeler) finalLabel(n *dom.Node) *Label {
	if n.Type == dom.AttributeNode {
		own := nl.ownLabel(n)
		p := n.Parent
		pOwn := nl.ownLabel(p)
		pr, prw, prd := nl.recursiveInForce(p)
		lab := &Label{L: own.L, LW: own.LW, LD: own.LD}
		if lab.L == Epsilon && lab.LW == Epsilon {
			lab.L = FirstDef(pOwn.L, pr)
			lab.LW = FirstDef(pOwn.LW, prw)
		}
		lab.LD = FirstDef(lab.LD, pOwn.LD, prd)
		lab.Final = FirstDef(lab.L, lab.LD, lab.LW)
		return lab
	}
	own := nl.ownLabel(n)
	lab := &Label{L: own.L, R: own.R, LW: own.LW, RW: own.RW, LD: own.LD, RD: own.RD}
	if lab.R == Epsilon && lab.RW == Epsilon {
		// Inherit from the nearest recursive ancestor.
		if p := n.Parent; p != nil && p.Type == dom.ElementNode {
			lab.R, lab.RW, _ = nl.recursiveInForce(p)
		}
	}
	if lab.RD == Epsilon {
		if p := n.Parent; p != nil && p.Type == dom.ElementNode {
			_, _, lab.RD = nl.recursiveInForce(p)
		}
	}
	lab.Final = FirstDef(lab.L, lab.R, lab.LD, lab.RD, lab.LW, lab.RW)
	return lab
}
