package server

import (
	"context"
	"errors"
	"fmt"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// ErrForbidden is returned when a requester holds some access to a
// document but not the authority the operation requires.
var ErrForbidden = errors.New("server: operation not authorized")

func isNotFound(err error) bool  { return errors.Is(err, ErrNotFound) }
func isForbidden(err error) bool { return errors.Is(err, ErrForbidden) }

// WriteAction is the action name of update authorizations. The paper
// leaves full write semantics as future work (Section 8, footnote 2:
// "the support of other actions ... does not complicate the
// authorization model"); authorizations with action "write" flow
// through the same subjects/objects/signs/types machinery.
const WriteAction = "write"

// Update replaces the document at uri with newSource under
// write-through-views semantics — the natural extension of the paper's
// view concept to its open "write and update operations" item:
//
//   - the requester's replacement is diffed against *their read view*
//     of the document, never against the original, so unreadable
//     content can neither be observed, overwritten, nor confirmed
//     through the write path;
//   - each edit requires a positive write label (action "write") on
//     the original node it touches — see core.MergeView for the exact
//     mapping;
//   - the server merges the authorized edits back into the original,
//     preserving everything the view hid, and the merged document must
//     be valid against the same DTD.
//
// Returns ErrNotFound for unknown documents — or documents the
// requester cannot even read, which must stay indistinguishable from
// absent ones — and ErrForbidden (wrapping the offending edit) when an
// edit exceeds the requester's write authority.
func (s *Site) Update(rq subjects.Requester, uri, newSource string) error {
	return s.UpdateContext(context.Background(), rq, uri, newSource)
}

// UpdateContext is Update under a request context; the write path's
// phases run as stages, and the request ID is written into the audit
// record. The merged document is validated once, strictly, when
// prepareEdited builds the next generation from it — before anything
// is journaled — so an invalid merge changes neither the log nor the
// store.
func (s *Site) UpdateContext(ctx context.Context, rq subjects.Requester, uri, newSource string) (err error) {
	defer func() { s.auditWrite(ctx, rq, uri, err) }()
	// The whole snapshot→judge→merge→commit sequence runs under the
	// persistence lock, as ApplyUpdate's does: the merge rebuilds the
	// document from the snapshotted tree and write authority is judged
	// against it, so no other write may commit in between — it would be
	// silently overwritten by this one.
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	sd := s.Docs.Doc(uri)
	if sd == nil {
		return ErrNotFound
	}
	// Visibility first: a requester with no read view must not learn
	// that the document exists from the write path either.
	readReq := core.Request{Requester: rq, URI: uri, DTDURI: sd.DTDURI}
	readView, err := s.Engine.ComputeViewCtx(ctx, readReq, sd.Doc)
	if err != nil {
		return err
	}
	if readView.Empty() {
		return ErrNotFound
	}
	// Parse the replacement before judging it (malformed input is a
	// client error regardless of authority).
	stages := s.Engine.Stages()
	st := stages.Begin(ctx, obs.StageParse)
	res, err := xmlparse.Parse(newSource, xmlparse.Options{ResolveDTD: s.Docs.resolveDTD, ApplyDefaults: true})
	st.End()
	if err != nil {
		return fmt.Errorf("server: update of %q: %w", uri, err)
	}
	newDTDURI := ""
	if res.Doc.DocType != nil {
		newDTDURI = res.Doc.DocType.SystemID
	}
	if newDTDURI != sd.DTDURI {
		return fmt.Errorf("server: update of %q must keep DTD %q (got %q)", uri, sd.DTDURI, newDTDURI)
	}
	// Write labels on the original document.
	writeReq := core.Request{Requester: rq, URI: uri, DTDURI: sd.DTDURI, Action: WriteAction}
	lb, _, err := s.Engine.LabelCtx(ctx, writeReq, sd.Doc)
	if err != nil {
		return err
	}
	pol := s.Engine.PolicyFor(uri)
	writable := func(n *dom.Node) bool {
		return pol.Grants(lb.FinalOf(n))
	}
	st = stages.Begin(ctx, obs.StageMerge)
	merged, err := core.MergeView(sd.Doc, readView, res.Doc, writable)
	st.End()
	if err != nil {
		var wde *core.WriteDeniedError
		if errors.As(err, &wde) {
			return fmt.Errorf("%w: %s", ErrForbidden, wde.Reason)
		}
		return err
	}
	// The merged copy becomes the next generation directly, validated
	// strictly before anything is journaled; the replacement is durable
	// before it is visible (commitDocLocked appends the WAL record, and
	// under -fsync always flushes it, before the swap).
	nd, err := s.Docs.prepareEdited(ctx, stages, sd, dom.WholeEdit(merged))
	if err != nil {
		return err
	}
	if err := s.commitDocLocked(ctx, nd); err != nil {
		return err
	}
	// The PUT replaced the parsed tree: release the superseded document
	// from the node-set index eagerly (its pointer would never be looked
	// up again, only pinned) and pre-fill the successor so the next
	// requester's labeling finds warm node-sets.
	if idx := s.Engine.AuthIndex(); idx != nil {
		idx.InvalidateDoc(sd.Doc)
		s.Engine.WarmAuthIndex(nd.Doc, uri, nd.DTDURI, 4)
	}
	return nil
}

// QueryDoc evaluates an XPath query against the requester's view of a
// document (the paper's "requests in form of generic queries" future
// work) and returns the query result document. Queries run on the
// view, never the original, so they cannot observe protected content.
//
// The view is obtained through Process, so queries share the site's
// per-requester view cache with document reads. Query evaluation is
// strictly read-only over the cached view (result nodes are cloned),
// which keeps the sharing sound under concurrency; a regression test
// pins this under -race.
func (s *Site) QueryDoc(rq subjects.Requester, uri, expr string) (*dom.Document, error) {
	return s.QueryDocContext(context.Background(), rq, uri, expr)
}

// QueryDocContext is QueryDoc under a request context; a traced
// context records the view computation's cycle stages and the query
// evaluation ("materialize", "xpath.eval") as spans.
func (s *Site) QueryDocContext(ctx context.Context, rq subjects.Requester, uri, expr string) (*dom.Document, error) {
	// Compile first: a malformed expression is the client's fault and
	// must fail before it costs a view computation.
	if _, err := xpath.Compile(expr); err != nil {
		return nil, err
	}
	res, err := s.ProcessContext(ctx, rq, uri)
	if err != nil {
		return nil, err
	}
	return res.View.QueryResultCtx(ctx, expr)
}

// GrantWrite installs a write authorization from its tuple form,
// rejecting tuples whose action is not "write". Durable when the site
// has a write-ahead log.
func (s *Site) GrantWrite(level authz.Level, tuple string) error {
	a, err := authz.Parse(tuple)
	if err != nil {
		return err
	}
	if a.Action != WriteAction {
		return fmt.Errorf("server: GrantWrite requires action %q, got %q", WriteAction, a.Action)
	}
	// Pre-check the one way Add can reject, so nothing unappliable is
	// ever logged.
	if level == authz.SchemaLevel && a.Type.IsWeak() {
		return fmt.Errorf("server: weak authorization %s not allowed at schema level", a)
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err := s.logMutation(context.Background(), mutation{
		Op: "grant", Level: level.String(), Tuple: tuple,
	}); err != nil {
		return err
	}
	if err := s.Auths.Add(level, a); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}
