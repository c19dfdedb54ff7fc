package xpath

// The stdlib import is aliased because this package's evaluation state
// type is itself named context.
import (
	stdcontext "context"

	"xmlsec/internal/dom"
	"xmlsec/internal/trace"
)

// SelectDocCtx is SelectDoc with per-request tracing: when ctx carries
// a trace, the evaluation is recorded as an "xpath.eval" span
// annotated with the expression source and the result cardinality.
// With an untraced context it is exactly SelectDoc — no allocation, no
// lock.
func (p *Path) SelectDocCtx(ctx stdcontext.Context, doc *dom.Document) ([]*dom.Node, error) {
	if card := trace.CostFromContext(ctx); card != nil {
		card.TreeXPathEvals++
	}
	sp := trace.StartChild(ctx, "xpath.eval")
	nodes, err := p.SelectDoc(doc)
	if sp.Traced() {
		if err != nil {
			sp.Lazyf("%s: %v", p.src, err)
		} else {
			sp.Lazyf("%s -> %d nodes", p.src, len(nodes))
		}
		sp.End()
	}
	return nodes, err
}

// SelectIndexesCtx is SelectIndexes with per-request tracing: the
// "xpath.eval" span records the expression, the result cardinality and
// which evaluator ran (arena or tree). With an untraced context it is
// exactly SelectIndexes.
func (p *Path) SelectIndexesCtx(ctx stdcontext.Context, doc *dom.Document) ([]int32, bool, error) {
	sp := trace.StartChild(ctx, "xpath.eval")
	idx, viaArena, err := p.SelectIndexes(doc)
	if card := trace.CostFromContext(ctx); card != nil {
		if viaArena {
			card.ArenaXPathEvals++
		} else {
			card.TreeXPathEvals++
		}
	}
	if sp.Traced() {
		route := "tree"
		if viaArena {
			route = "arena"
		}
		if err != nil {
			sp.Lazyf("%s [%s]: %v", p.src, route, err)
		} else {
			sp.Lazyf("%s [%s] -> %d nodes", p.src, route, len(idx))
		}
		sp.End()
	}
	return idx, viaArena, err
}
