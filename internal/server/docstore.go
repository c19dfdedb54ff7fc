package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
	"xmlsec/internal/xmlparse"
)

// StoredDoc is a document registered at the site: its source text, the
// parsed tree, and its DTD binding.
type StoredDoc struct {
	// URI is the document's identifier (the authorization object key).
	URI string
	// Source is the XML text: the text registered or PUT, or, for a
	// committed edit, the edited document's canonical serialization
	// (see DocStore.prepareEdited). Parsing it rebuilds Doc.
	Source string
	// Hash is contentHash(Source), computed once when the generation
	// is prepared; WAL records fingerprint generations with it.
	Hash string
	// DTDURI is the URI of the DTD the document is an instance of;
	// empty for DTD-less documents.
	DTDURI string
	// Doc is the parsed tree (attribute defaults applied) — the
	// adapter XPath fallback, validation, merge and update apply walk.
	Doc *dom.Document
	// Arena is the struct-of-arrays representation of Doc, built at
	// parse time; the serve path's label/mask/unparse sweeps run over
	// it. Both are immutable for the lifetime of this registration: a
	// PUT installs a whole new StoredDoc under a new generation.
	Arena *dom.Arena
	// DTD is the parsed document type definition, or nil.
	DTD *dtd.DTD

	// canon records where each element lies in Source. Only a
	// generation prepareEdited built has it: there Source is the tree's
	// canonical serialization and the tree is in normal form, so the
	// next edit can commit locally. A text-prepared generation's Source
	// is whatever text was registered.
	canon *dom.SourceMap
	// dtdEntry is the registered DTD (the store's entry itself, not
	// resolveDTD's per-call copy) the document was validated against,
	// or nil; a PutDTD that replaces the entry makes the next edit
	// commit whole.
	dtdEntry *dtd.DTD
}

// DocStore is the site's registry of protected resources: XML documents
// and the DTDs they are instances of. It also caches the loosened
// version of each DTD (Section 6.2), which is what requesters receive.
type DocStore struct {
	mu    sync.RWMutex
	gen   uint64
	docs  map[string]*StoredDoc
	dtds  map[string]*dtd.DTD // DTD URI → parsed DTD
	srcs  map[string]string   // DTD URI → source text
	loose map[string]*dtd.DTD // DTD URI → loosened DTD (lazily built)
}

// NewDocStore returns an empty registry.
func NewDocStore() *DocStore {
	return &DocStore{
		docs:  make(map[string]*StoredDoc),
		dtds:  make(map[string]*dtd.DTD),
		srcs:  make(map[string]string),
		loose: make(map[string]*dtd.DTD),
	}
}

// AddDTD registers a DTD under its URI.
func (s *DocStore) AddDTD(uri, source string) error {
	d, err := prepareDTD(uri, source)
	if err != nil {
		return err
	}
	s.commitDTD(uri, source, d)
	return nil
}

// prepareDTD parses and compiles a DTD without touching the store, so
// callers can validate (and log) a registration before committing it.
func prepareDTD(uri, source string) (*dtd.DTD, error) {
	d, err := dtd.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("server: DTD %q: %w", uri, err)
	}
	d.CompileAll()
	return d, nil
}

// commitDTD installs a prepared DTD.
func (s *DocStore) commitDTD(uri, source string, d *dtd.DTD) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dtds[uri] = d
	s.srcs[uri] = source
	delete(s.loose, uri)
	s.gen++
}

// Generation returns a counter that changes whenever registered content
// changes, for cache invalidation.
func (s *DocStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// AddDocument parses and registers a document. The document's DOCTYPE
// system identifier, if any, must name a DTD already registered with
// AddDTD (the registry is the store's closed world; nothing is fetched).
// If the document is not valid with respect to its DTD, registration
// fails: the processor's contract takes valid documents as input.
func (s *DocStore) AddDocument(uri, source string) error {
	sd, err := s.prepareDocument(uri, source)
	if err != nil {
		return err
	}
	s.commitDocument(sd)
	return nil
}

// prepareDocument parses and validates a document against the store's
// registered DTDs without committing it, so callers can make the
// registration durable between validation and the in-memory commit.
// It serves text inputs only — AddDocument, PutDocument, snapshot
// restore and "doc" records; an edit of a stored document commits
// through prepareEdited.
func (s *DocStore) prepareDocument(uri, source string) (*StoredDoc, error) {
	res, err := xmlparse.Parse(source, xmlparse.Options{ResolveDTD: s.resolveDTD, ApplyDefaults: true})
	if err != nil {
		return nil, fmt.Errorf("server: document %q: %w", uri, err)
	}
	sd := &StoredDoc{URI: uri, Source: source, Hash: contentHash(source), Doc: res.Doc, Arena: res.Arena, DTD: res.DTD}
	if err := sd.bindDTD(); err != nil {
		return nil, err
	}
	return sd, nil
}

// prepareEdited builds the next generation of prev from an edited
// private copy of prev's tree (update.ApplyEdit's result, or a
// dom.WholeEdit of MergeView's) without a serialize→reparse round
// trip: the copy is normalized to the tree a parse of its text would
// rebuild, given the DTD's attribute defaults, strictly validated
// against the DTD its DOCTYPE resolves to now, numbered, flattened
// into its arena, and serialized once. The result equals
// prepareDocument(prev.URI, result.Source) node for node
// (TestEditedCommitParity, TestEditedCommitParityChained,
// FuzzEditedCommitParity). The copy is consumed.
//
// The commit is local to the edit's footprint when prev is itself an
// edited generation (its tree is in normal form and its Source is the
// tree's canonical text, with element ranges) whose registered DTD
// entry is still the one in the store: then only the footprint is
// normalized, defaulted and validated (plus the document-wide ID pass
// if the DTD declares IDs), only the footprint and its ancestors are
// written into the arena and the text, and everything else is copied
// from prev as runs. Otherwise — a text-prepared prev, a merged PUT, a
// replaced DTD — the footprint is the whole document. The card's
// commit_nodes_built counts the nodes written individually. The work
// runs as the doc.prepare stage, the serialization as doc.serialize.
func (s *DocStore) prepareEdited(ctx context.Context, stages *trace.Stages, prev *StoredDoc, ed *dom.Edit) (*StoredDoc, error) {
	st := stages.Begin(ctx, obs.StageDocPrepare)
	sd, err := s.normalizeEdited(prev, ed)
	st.End()
	if err != nil {
		return nil, err
	}
	st = stages.Begin(ctx, obs.StageDocSerialize)
	sd.Source, sd.canon = ed.Source()
	sd.Hash = contentHash(sd.Source)
	st.End()
	if card := trace.CostFromContext(ctx); card != nil {
		card.NodesBuilt += int64(ed.Built())
	}
	return sd, nil
}

// normalizeEdited is prepareEdited up to the serialization.
func (s *DocStore) normalizeEdited(prev *StoredDoc, ed *dom.Edit) (*StoredDoc, error) {
	out := ed.Doc()
	sd := &StoredDoc{URI: prev.URI, Doc: out}
	if s.sameDTD(prev) && ed.Against(prev.Source, prev.canon) {
		// An edit cannot change the DOCTYPE, so the DTD prev was
		// validated against is the one to validate against now.
		sd.DTD, sd.dtdEntry = prev.DTD, prev.dtdEntry
	}
	ed.Normalize()
	if out.DocumentElement() == nil {
		return nil, fmt.Errorf("server: document %q has no document element", prev.URI)
	}
	if dt := out.DocType; dt != nil {
		sd.DTDURI = dt.SystemID
		if !ed.Local() {
			d, entry, err := s.resolve(dt)
			if err != nil {
				return nil, fmt.Errorf("server: document %q: %w", prev.URI, err)
			}
			sd.DTD, sd.dtdEntry = d, entry
		}
	}
	if sd.DTD != nil {
		sd.DTD.ApplyDefaultsEdit(ed.Touched(), ed.Inserted())
		if errs := sd.DTD.ValidateEdit(out, ed.Touched(), ed.Inserted()); errs != nil {
			return nil, fmt.Errorf("server: document %q is not valid: %w", prev.URI, errs)
		}
	}
	sd.Arena = ed.BuildArena()
	return sd, nil
}

// sameDTD reports whether prev's DOCTYPE still resolves to the DTD
// entry prev was validated against.
func (s *DocStore) sameDTD(prev *StoredDoc) bool {
	dt := prev.Doc.DocType
	if dt == nil || dt.SystemID == "" {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dtds[dt.SystemID] == prev.dtdEntry
}

// bindDTD records the document's DTD URI and validates the document
// strictly against its DTD, if it has one.
func (sd *StoredDoc) bindDTD() error {
	if dt := sd.Doc.DocType; dt != nil {
		sd.DTDURI = dt.SystemID
	}
	if sd.DTD != nil {
		if errs := sd.DTD.Validate(sd.Doc, dtd.ValidateOptions{}); errs != nil {
			return fmt.Errorf("server: document %q is not valid: %w", sd.URI, errs)
		}
	}
	return nil
}

// resolveDTD returns the DTD a document type declaration resolves to in
// the store now: its internal subset, then the registered DTD its
// system identifier names (nothing is fetched). Without an internal
// subset that is the registered DTD itself, shared read-only under the
// declared document element name; with one, the two subsets are
// parsed afresh, the internal one first, as XML precedence requires.
func (s *DocStore) resolveDTD(dt *dom.DocType) (*dtd.DTD, error) {
	d, _, err := s.resolve(dt)
	return d, err
}

// resolve is resolveDTD that also returns the registered entry the
// system identifier named, or nil.
func (s *DocStore) resolve(dt *dom.DocType) (d, entry *dtd.DTD, err error) {
	var src string
	if dt.SystemID != "" {
		s.mu.RLock()
		shared, ok := s.dtds[dt.SystemID]
		src = s.srcs[dt.SystemID]
		s.mu.RUnlock()
		if !ok {
			return nil, nil, fmt.Errorf("server: DTD %q not registered", dt.SystemID)
		}
		entry = shared
		if dt.InternalSubset == "" {
			named := *shared
			named.Name = dt.Name
			return &named, entry, nil
		}
	}
	d = dtd.NewDTD()
	d.Name = dt.Name
	if err := d.ParseSubset(dt.InternalSubset); err != nil {
		return nil, nil, fmt.Errorf("internal subset: %w", err)
	}
	if src != "" {
		if err := d.ParseSubset(src); err != nil {
			return nil, nil, fmt.Errorf("external subset %q: %w", dt.SystemID, err)
		}
	}
	return d, entry, nil
}

// commitDocument installs a prepared document.
func (s *DocStore) commitDocument(sd *StoredDoc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[sd.URI] = sd
	s.gen++
}

// Doc returns the stored document for uri, or nil.
func (s *DocStore) Doc(uri string) *StoredDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[uri]
}

// DocWithGeneration returns the stored document for uri together with
// the store generation, under one lock acquisition. Cache keying must
// use this rather than Doc+Generation: between two separate calls a
// concurrent PUT can replace the document, and a view of the OLD tree
// would then be filed under the NEW generation's key — a poisoned
// entry that no later store change ever invalidates.
func (s *DocStore) DocWithGeneration(uri string) (*StoredDoc, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[uri], s.gen
}

// DTD returns the registered DTD for uri, or nil.
func (s *DocStore) DTD(uri string) *dtd.DTD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dtds[uri]
}

// DTDSource returns the registered DTD source text for uri.
func (s *DocStore) DTDSource(uri string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.srcs[uri]
	return src, ok
}

// Loosened returns the loosened version of the DTD registered at uri,
// building and caching it on first use. Requesters only ever see the
// loosened DTD: delivering the original would reveal which components
// security enforcement may have pruned.
func (s *DocStore) Loosened(uri string) *dtd.DTD {
	s.mu.RLock()
	if l, ok := s.loose[uri]; ok {
		s.mu.RUnlock()
		return l
	}
	d := s.dtds[uri]
	s.mu.RUnlock()
	if d == nil {
		return nil
	}
	l := d.Loosen()
	l.CompileAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the write lock: two first requests may both have
	// built a loosened DTD, and exactly one must win so every requester
	// shares one compiled automaton (and pointer comparisons hold).
	if prev, ok := s.loose[uri]; ok {
		return prev
	}
	if s.dtds[uri] != d {
		// The DTD was replaced while we loosened; the loosening of the
		// old one must not be cached under the new registration.
		return l
	}
	s.loose[uri] = l
	return l
}

// URIs returns the registered document URIs, sorted: listings,
// snapshot manifests, and golden tests all need a deterministic order.
func (s *DocStore) URIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for u := range s.docs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// DTDURIs returns the registered DTD URIs, sorted.
func (s *DocStore) DTDURIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.dtds))
	for u := range s.dtds {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Reset drops every registered document and DTD (recovery replaces the
// store's content with a snapshot's). The generation still advances,
// so caches keyed on it cannot serve pre-reset state.
func (s *DocStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs = make(map[string]*StoredDoc)
	s.dtds = make(map[string]*dtd.DTD)
	s.srcs = make(map[string]string)
	s.loose = make(map[string]*dtd.DTD)
	s.gen++
}
