package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

// updatedCSlab is a valid replacement document (one fewer paper).
const updatedCSlab = `<?xml version="1.0"?>
<!DOCTYPE laboratory SYSTEM "laboratory.xml">
<laboratory name="CSlab">
  <project name="Access Models" type="internal">
    <manager><flname>Ada Turing</flname></manager>
    <paper category="public"><title>XML Views</title></paper>
  </project>
</laboratory>
`

func writerSite(t *testing.T) (*Site, subjects.Requester) {
	t.Helper()
	site := labSite(t)
	// Give Sam read and write authority over the whole document.
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Admin,*,*>,CSlab.xml:/laboratory,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	if err := site.GrantWrite(authz.InstanceLevel,
		`<<Admin,*,*>,CSlab.xml:/laboratory,write,+,R>`); err != nil {
		t.Fatal(err)
	}
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	return site, sam
}

func TestUpdateAuthorized(t *testing.T) {
	site, sam := writerSite(t)
	if err := site.Update(sam, labexample.DocURI, updatedCSlab); err != nil {
		t.Fatal(err)
	}
	res, err := site.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XML, "Web Search") {
		t.Errorf("update did not take effect:\n%s", res.XML)
	}
}

func TestUpdateDeniedWithoutWriteAuthority(t *testing.T) {
	site, _ := writerSite(t)
	// Tom can read parts of the document but has no write grant.
	err := site.Update(labexample.Tom, labexample.DocURI, updatedCSlab)
	if !errors.Is(err, ErrForbidden) {
		t.Errorf("Tom's update: %v, want ErrForbidden", err)
	}
}

func TestUpdatePartialWriteIsForbidden(t *testing.T) {
	site, sam := writerSite(t)
	// Carve out a denial: Sam may not write the fund element, so
	// whole-document write authority is gone.
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Admin,*,*>,CSlab.xml://fund,write,-,R>`)); err != nil {
		t.Fatal(err)
	}
	if err := site.Update(sam, labexample.DocURI, updatedCSlab); !errors.Is(err, ErrForbidden) {
		t.Errorf("partial write authority: %v, want ErrForbidden", err)
	}
}

func TestUpdateInvisibleDocIsNotFound(t *testing.T) {
	site, _ := writerSite(t)
	// A requester with no read view must get 404 semantics, not 403.
	nobody := subjects.Requester{User: "stranger", IP: "9.9.9.9", Host: "out.example.org"}
	if err := site.Docs.AddDocument("vault.xml", `<vault><k>x</k></vault>`); err != nil {
		t.Fatal(err)
	}
	if err := site.Update(nobody, "vault.xml", `<vault><k>y</k></vault>`); !errors.Is(err, ErrNotFound) {
		t.Errorf("invisible doc update: %v, want ErrNotFound", err)
	}
	if err := site.Update(nobody, "ghost.xml", "<x/>"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown doc update: %v, want ErrNotFound", err)
	}
}

// TestUpdateRejectsInvalidReplacement: an invalid, malformed or
// DTD-switching replacement is the client's fault (422 over HTTP), and
// a rejected write leaves the store generation and the log untouched —
// the merged document is validated before anything is journaled.
func TestUpdateRejectsInvalidReplacement(t *testing.T) {
	site := durableLabSite(t, t.TempDir())
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	gen, appends := site.Docs.Generation(), site.WALStats().Appends
	defer func() {
		if g := site.Docs.Generation(); g != gen {
			t.Errorf("store generation moved from %d to %d on rejected writes", gen, g)
		}
		if n := site.WALStats().Appends; n != appends {
			t.Errorf("rejected writes appended %d log records", n-appends)
		}
	}()
	// Not valid against the DTD: laboratory requires project+.
	bad := `<!DOCTYPE laboratory SYSTEM "laboratory.xml"><laboratory name="CSlab"></laboratory>`
	if err := site.Update(sam, labexample.DocURI, bad); err == nil ||
		errors.Is(err, ErrForbidden) || errors.Is(err, ErrNotFound) ||
		!strings.Contains(err.Error(), "not valid") {
		t.Errorf("invalid replacement: %v, want validity error", err)
	}
	if rec := do(t, site.Handler(), http.MethodPut, "/docs/CSlab.xml", "Sam", sam.IP, bad); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("invalid replacement over HTTP: %d %s, want 422", rec.Code, rec.Body.String())
	}
	// Malformed XML.
	if err := site.Update(sam, labexample.DocURI, "<oops"); err == nil {
		t.Error("malformed replacement accepted")
	}
	// Switching DTDs is rejected.
	other := `<other/>`
	if err := site.Update(sam, labexample.DocURI, other); err == nil {
		t.Error("DTD switch accepted")
	}
}

func TestGrantWriteRejectsOtherActions(t *testing.T) {
	site, _ := writerSite(t)
	if err := site.GrantWrite(authz.InstanceLevel,
		`<<Admin,*,*>,CSlab.xml:/laboratory,read,+,R>`); err == nil {
		t.Error("GrantWrite should reject non-write tuples")
	}
}

func TestQueryDocOverView(t *testing.T) {
	site := labSite(t)
	// Tom queries for all titles: only the public papers' titles are
	// in his view, even though the query would match private ones on
	// the original document.
	res, err := site.QueryDoc(labexample.Tom, labexample.DocURI, "//title")
	if err != nil {
		t.Fatal(err)
	}
	out := res.StringIndent("  ")
	if strings.Contains(out, "Security Markup") || strings.Contains(out, "Ranking Internals") {
		t.Errorf("query leaked protected titles:\n%s", out)
	}
	if !strings.Contains(out, "XML Views") || !strings.Contains(out, "Crawling the Web") {
		t.Errorf("query missing visible titles:\n%s", out)
	}
	if v, _ := res.DocumentElement().Attr("count"); v != "2" {
		t.Errorf("count = %s, want 2", v)
	}

	// Querying a hidden attribute yields nothing.
	res, err = site.QueryDoc(labexample.Tom, labexample.DocURI, "//project/@name")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.DocumentElement().Attr("count"); v != "0" {
		t.Errorf("hidden attribute query count = %s, want 0", v)
	}

	if _, err := site.QueryDoc(labexample.Tom, "ghost.xml", "//x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("query on unknown doc: %v", err)
	}
	if _, err := site.QueryDoc(labexample.Tom, labexample.DocURI, "///"); err == nil {
		t.Error("bad query expression accepted")
	}
}

func TestHTTPUpdateAndQuery(t *testing.T) {
	site, _ := writerSite(t)
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	h := site.Handler()

	// Query as Tom.
	req := httptest.NewRequest(http.MethodGet, "/query/CSlab.xml?q=//title", nil)
	req.RemoteAddr = "130.100.50.8:4000"
	req.SetBasicAuth("Tom", "pw-tom")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "Security Markup") {
		t.Errorf("HTTP query wrong (code %d):\n%s", rec.Code, rec.Body.String())
	}

	// PUT as Sam succeeds.
	req = httptest.NewRequest(http.MethodPut, "/docs/CSlab.xml", strings.NewReader(updatedCSlab))
	req.RemoteAddr = "130.89.56.8:4000"
	req.SetBasicAuth("Sam", "pw-sam")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Errorf("PUT as Sam: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	// PUT as Tom is forbidden.
	req = httptest.NewRequest(http.MethodPut, "/docs/CSlab.xml", strings.NewReader(updatedCSlab))
	req.RemoteAddr = "130.100.50.8:4000"
	req.SetBasicAuth("Tom", "pw-tom")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Errorf("PUT as Tom: HTTP %d, want 403", rec.Code)
	}

	// Missing q parameter.
	req = httptest.NewRequest(http.MethodGet, "/query/CSlab.xml", nil)
	req.RemoteAddr = "130.100.50.8:4000"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("query without q: HTTP %d, want 400", rec.Code)
	}
}

// TestUpdateWriteThroughViews: a requester with write authority over
// only part of the document edits their region through their view; the
// server merges the edit and everything the view hid survives.
func TestUpdateWriteThroughViews(t *testing.T) {
	site := labSite(t)
	// Tom reads public papers + the public project's manager (labSite's
	// Example 1 rules). Give him write authority over managers.
	if err := site.GrantWrite(authz.InstanceLevel,
		`<<Foreign,*,*>,CSlab.xml://manager,write,+,R>`); err != nil {
		t.Fatal(err)
	}
	// Tom's view with the manager renamed inside; everything else as
	// his view shows it.
	tomEdit := `<?xml version="1.0"?>
<!DOCTYPE laboratory SYSTEM "laboratory.xml">
<laboratory>
  <project>
    <paper category="public"><title>XML Views</title></paper>
  </project>
  <project>
    <manager><flname>Carol Codd</flname></manager>
    <paper category="public"><title>Crawling the Web</title></paper>
  </project>
</laboratory>`
	if err := site.Update(labexample.Tom, labexample.DocURI, tomEdit); err != nil {
		t.Fatal(err)
	}
	// The stored document keeps everything Tom could not see.
	stored := site.Docs.Doc(labexample.DocURI).Source
	for _, hidden := range []string{"Security Markup", "Ranking Internals", "MURST", `name="Access Models"`, "Ada Turing"} {
		if !strings.Contains(stored, hidden) {
			t.Errorf("hidden content %q lost after Tom's update:\n%s", hidden, stored)
		}
	}
	if !strings.Contains(stored, "Carol Codd") || strings.Contains(stored, "Bob Codd") {
		t.Errorf("Tom's authorized edit not applied:\n%s", stored)
	}
}

// TestUpdateCannotSmuggleGuessedContent: including verbatim guesses of
// hidden content in a PUT is an insertion relative to the view and is
// denied — the write path is not a confirmation oracle.
func TestUpdateCannotSmuggleGuessedContent(t *testing.T) {
	site := labSite(t)
	if err := site.GrantWrite(authz.InstanceLevel,
		`<<Foreign,*,*>,CSlab.xml://manager,write,+,R>`); err != nil {
		t.Fatal(err)
	}
	guess := `<?xml version="1.0"?>
<!DOCTYPE laboratory SYSTEM "laboratory.xml">
<laboratory>
  <project>
    <paper category="private"><title>Security Markup</title></paper>
    <paper category="public"><title>XML Views</title></paper>
  </project>
  <project>
    <manager><flname>Bob Codd</flname></manager>
    <paper category="public"><title>Crawling the Web</title></paper>
  </project>
</laboratory>`
	err := site.Update(labexample.Tom, labexample.DocURI, guess)
	if !errors.Is(err, ErrForbidden) {
		t.Fatalf("smuggled guess: %v, want ErrForbidden", err)
	}
}
