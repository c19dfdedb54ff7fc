package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlsec/internal/core"
	"xmlsec/internal/dom"
)

// TestMergeIdentityProperty: over random workloads, merging an unedited
// view back into the original reproduces the original exactly —
// write-through-views is the identity on no-ops, whatever the view
// hides.
func TestMergeIdentityProperty(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		eng, req, doc, _ := randomSetup(seed)
		view, err := eng.ComputeView(req, doc)
		if err != nil {
			t.Fatal(err)
		}
		if view.Empty() {
			continue
		}
		merged, err := core.MergeView(doc, view, view.Materialize(), func(*dom.Node) bool { return false })
		if err != nil {
			t.Fatalf("seed %d: no-op merge should need no write authority: %v", seed, err)
		}
		if merged.StringIndent("") != doc.StringIndent("") {
			t.Errorf("seed %d: no-op merge is not the identity", seed)
		}
	}
}

// TestMergePreservationProperty: after random non-destructive edits on
// the *view* (the only thing a requester can see), merging with write
// authority limited to the visible nodes — the realistic setting —
// preserves every invisible node of the original. (Deletions of
// visible elements with invisible content are exercised by the
// directed merge tests; with visibility-limited write authority the
// merge refuses them, so they cannot feature in a preservation
// property.)
func TestMergePreservationProperty(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		eng, req, doc, _ := randomSetup(seed)
		view, err := eng.ComputeView(req, doc)
		if err != nil {
			t.Fatal(err)
		}
		if view.Empty() {
			continue
		}
		// The original nodes that survived into the view: OriginOf is
		// the visibility-gated identity.
		visibleOrig := make(map[*dom.Node]bool)
		view.Doc.Walk(func(n *dom.Node) bool {
			if o := view.OriginOf(n); o != nil {
				visibleOrig[o] = true
			}
			return true
		})
		var invisible []string
		doc.Walk(func(n *dom.Node) bool {
			if (n.Type == dom.ElementNode || n.Type == dom.AttributeNode) && !visibleOrig[n] {
				invisible = append(invisible, n.Path()+"="+n.Text())
			}
			return true
		})

		// Random edits on a copy of the view.
		edited := view.Materialize().Clone()
		rng := rand.New(rand.NewSource(seed * 97))
		mutateVisible(rng, edited.DocumentElement())

		merged, err := core.MergeView(doc, view, edited, func(n *dom.Node) bool {
			return visibleOrig[n]
		})
		if err != nil {
			t.Fatalf("seed %d: merge of view-local edits failed: %v", seed, err)
		}
		// Every invisible original node still exists in the merged
		// document with the same path and text.
		found := make(map[string]int)
		merged.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode || n.Type == dom.AttributeNode {
				found[n.Path()+"="+n.Text()]++
			}
			return true
		})
		for _, key := range invisible {
			if found[key] == 0 {
				t.Errorf("seed %d: invisible node %s lost after merge", seed, key)
			}
		}
	}
}

// mutateVisible applies a few random structural and content edits that
// a requester could legitimately perform on their view.
func mutateVisible(rng *rand.Rand, n *dom.Node) {
	if n == nil {
		return
	}
	switch rng.Intn(4) {
	case 0: // add a fresh attribute (names disjoint from generated a0..aN)
		n.SetAttr(fmt.Sprintf("edited%d", rng.Intn(3)), "1")
	case 1: // append an element (names disjoint from generated e<l>x<k>)
		e := dom.NewElement(fmt.Sprintf("new%d", rng.Intn(3)))
		e.AppendChild(dom.NewText("added"))
		n.AppendChild(e)
	case 2: // modify a visible attribute's value
		if len(n.Attrs) > 0 {
			n.Attrs[rng.Intn(len(n.Attrs))].Data = "rewritten"
		}
	case 3: // edit text the view shows (hidden text never appears here)
		for _, c := range n.Children {
			if c.Type == dom.TextNode {
				c.Data = "rewritten"
				break
			}
		}
	}
	for _, c := range n.ChildElements() {
		if rng.Intn(2) == 0 {
			mutateVisible(rng, c)
		}
	}
}
