package server

import (
	"context"
	"strings"
	"testing"

	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

// TestEveryCommitPathBuildsArena pins the precondition of the view
// pipeline: a shared document must carry its arena before any reader
// sees it, because dom.Document.Arena builds a missing one in place and
// that build is not safe under concurrent readers. Every path that
// installs a document — registration, both PUT forms, update scripts,
// WAL replay and snapshot restore — and the per-request parse must
// therefore hand over a parsed document with its arena built.
func TestEveryCommitPathBuildsArena(t *testing.T) {
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	check := func(path string, site *Site) {
		t.Helper()
		sd := site.Docs.Doc(labexample.DocURI)
		if sd == nil {
			t.Fatalf("%s: document missing", path)
		}
		if sd.Doc.ArenaIfBuilt() == nil {
			t.Errorf("%s: committed document has no arena", path)
		}
	}

	dir := t.TempDir()
	site := durableLabSite(t, dir)
	check("AddDocument", site)

	src := site.Docs.Doc(labexample.DocURI).Source
	if err := site.PutDocument(labexample.DocURI, strings.Replace(src, "Ada Turing", "Ada Lovelace", 1)); err != nil {
		t.Fatal(err)
	}
	check("PutDocument", site)

	src = site.Docs.Doc(labexample.DocURI).Source
	if err := site.Update(sam, labexample.DocURI, strings.Replace(src, "Ada Lovelace", "Ada Byron", 1)); err != nil {
		t.Fatal(err)
	}
	check("Update", site)

	if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI,
		"replace-text //flname Ada Hopper"); err != nil {
		t.Fatal(err)
	}
	check("ApplyUpdate", site)
	if err := site.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	replayed := durableLabSite(t, dir)
	if st := replayed.WALStats(); st.ReplayRecords < 3 {
		t.Fatalf("recovery replayed %d records, want the three writes", st.ReplayRecords)
	}
	if got := replayed.Docs.Doc(labexample.DocURI).Source; !strings.Contains(got, "Ada Hopper") {
		t.Fatal("replay did not reach the last update")
	}
	check("WAL replay", replayed)
	if err := replayed.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	restored := durableLabSite(t, dir)
	defer restored.CloseDurability()
	if st := restored.WALStats(); st.SnapshotLSN == 0 || st.ReplayRecords != 0 {
		t.Fatalf("recovery did not come from the snapshot alone: %+v", st)
	}
	check("snapshot restore", restored)

	restored.ParsePerRequest = true
	res, err := restored.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if res.View.Doc == restored.Docs.Doc(labexample.DocURI).Doc {
		t.Fatal("ParsePerRequest served the stored document")
	}
	if res.View.Doc.ArenaIfBuilt() == nil {
		t.Error("ParsePerRequest: per-request parse has no arena")
	}
}
