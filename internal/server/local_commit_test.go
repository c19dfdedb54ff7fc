package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"weak"

	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
	"xmlsec/internal/workload"
)

// footprintBound is the most nodes a local commit may build for an
// edit of the elements at paths: each of them and each of its
// ancestors, up to the document node, with its attributes and its
// non-element children, plus the nodes of inserted subtrees.
func footprintBound(t *testing.T, doc *dom.Document, inserted int, elems ...*dom.Node) int {
	t.Helper()
	seen := map[*dom.Node]bool{}
	n := inserted
	for _, e := range elems {
		for m := e; m != nil && !seen[m]; m = m.Parent {
			seen[m] = true
			n += 1 + len(m.Attrs)
			for _, c := range m.Children {
				if c.Type != dom.ElementNode {
					n++
				}
			}
		}
	}
	return n
}

// elementAt follows a path of 1-based element child positions from the
// document element.
func elementAt(doc *dom.Document, pos ...int) *dom.Node {
	n := doc.DocumentElement()
	for _, p := range pos {
		n = n.ChildElements()[p-1]
	}
	return n
}

// TestLocalCommitBuildsOnlyTheFootprint proves the local path is taken:
// a script update of an edited generation builds at most the
// footprint and its ancestors, while the first edit after
// AddDocument, the first after PutDTD and a merged PUT build every
// node. Without it a silent fallback to the whole document would pass
// every parity test.
func TestLocalCommitBuildsOnlyTheFootprint(t *testing.T) {
	site, w := genWriteSite(t, workload.DocConfig{Depth: 4, Fanout: 4, Attrs: 2, Seed: 1})
	commit := func(script string) (built int64, sd *StoredDoc) {
		t.Helper()
		card := obs.GetCostCard()
		defer obs.PutCostCard(card)
		ctx := trace.WithRequest(context.Background(), "test", card)
		if err := site.ApplyUpdate(ctx, w, "doc.xml", script); err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		return card.NodesBuilt, site.Docs.Doc("doc.xml")
	}
	whole := func(what string, built int64, sd *StoredDoc) {
		t.Helper()
		if n := sd.Doc.NodeCount(); built != int64(n) {
			t.Errorf("%s: built %d nodes, want the whole document's %d", what, built, n)
		}
	}
	local := func(what string, built int64, bound int, sd *StoredDoc) {
		t.Helper()
		if built <= 0 || built > int64(bound) || built*10 > int64(sd.Doc.NodeCount()) {
			t.Errorf("%s: built %d nodes, want at most the footprint and its ancestors' %d (document: %d)",
				what, built, bound, sd.Doc.NodeCount())
		}
	}

	built, sd := commit("set-attr /root/e1x0[1]/e2x1[1]/e3x2[1] a0=first")
	whole("first edit after AddDocument", built, sd)

	built, sd = commit("set-attr /root/e1x0[1]/e2x1[1]/e3x2[1] a0=second")
	local("set-attr", built, footprintBound(t, sd.Doc, 0, elementAt(sd.Doc, 1, 2, 3)), sd)

	built, sd = commit("insert-into /root/e1x1[1]/e2x0[1]/e3x0[1] <e4x0 a0=\"1\">new</e4x0>\ndelete /root/e1x2[1]/e2x2[1]/e3x1[1]")
	local("insert and delete", built, footprintBound(t, sd.Doc, 0, elementAt(sd.Doc, 2, 1, 1, 5), elementAt(sd.Doc, 3, 3)), sd)

	built, sd = commit("replace-text /root/e1x0[1]/e2x0[1]/e3x0[1]/e4x0[1] changed")
	local("replace-text", built, footprintBound(t, sd.Doc, 0, elementAt(sd.Doc, 1, 1, 1, 1)), sd)

	src, _ := site.Docs.DTDSource("bench.dtd")
	if err := site.PutDTD("bench.dtd", src); err != nil {
		t.Fatal(err)
	}
	built, sd = commit("set-attr /root/e1x0[1] a1=after-putdtd")
	whole("first edit after PutDTD", built, sd)
	built, sd = commit("set-attr /root/e1x0[1] a1=local-again")
	local("edit after the whole-document commit", built, footprintBound(t, sd.Doc, 0, elementAt(sd.Doc, 1)), sd)

	card := obs.GetCostCard()
	defer obs.PutCostCard(card)
	body := strings.Replace(sd.Source, `a1="local-again"`, `a1="put"`, 1)
	if err := site.UpdateContext(trace.WithRequest(context.Background(), "put", card), w, "doc.xml", body); err != nil {
		t.Fatal(err)
	}
	whole("merged PUT", card.NodesBuilt, site.Docs.Doc("doc.xml"))
	built, sd = commit("set-attr /root/e1x0[1] a1=after-put")
	local("edit after a PUT", built, footprintBound(t, sd.Doc, 0, elementAt(sd.Doc, 1)), sd)
}

// TestCommitNodesBuiltIsReported pins that the count reaches the
// operator: /debug/slowz and the audit record carry it for a script
// update sent through the handler.
func TestCommitNodesBuiltIsReported(t *testing.T) {
	site, _ := writerSite(t)
	var audit bytes.Buffer
	site.SetAuditLog(&audit)
	site.EnableSlowLog(0, 32)
	h := site.Handler()
	for i, script := range []string{"replace-text //title First", "replace-text //title Second"} {
		audit.Reset()
		rec := do(t, h, http.MethodPost, "/docs/"+labexample.DocURI+"/update", "Sam", "130.89.56.8", script)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
		id := rec.Header().Get("X-Request-ID")
		var slowz slowzResponse
		if err := json.Unmarshal(do(t, h, http.MethodGet, "/debug/slowz", "", "127.0.0.1", "").Body.Bytes(), &slowz); err != nil {
			t.Fatal(err)
		}
		var fromSlowz int64 = -1
		for _, e := range slowz.Entries {
			if e.RequestID == id {
				fromSlowz = e.Cost.NodesBuilt
			}
		}
		var ar AuditRecord
		if err := json.Unmarshal(audit.Bytes(), &ar); err != nil || ar.Cost == nil {
			t.Fatalf("audit record: %v (%q)", err, audit.String())
		}
		if !strings.Contains(audit.String(), `"commit_nodes_built":`) {
			t.Errorf("audit record lacks commit_nodes_built: %s", audit.String())
		}
		n := int64(site.Docs.Doc(labexample.DocURI).Doc.NodeCount())
		if fromSlowz != ar.Cost.NodesBuilt || (i == 0) != (fromSlowz == n) || fromSlowz <= 0 {
			t.Errorf("update %d: slowz %d, audit %d nodes built of %d", i, fromSlowz, ar.Cost.NodesBuilt, n)
		}
	}
}

// TestGenerationsDoNotPinEachOther commits 64 local script updates and
// checks that every generation but the last two — the stored one and
// the one before it — is collected: a commit that kept a pointer to
// its base (through the arena, the tree, the symbol table or a string
// chain) would keep them all alive.
func TestGenerationsDoNotPinEachOther(t *testing.T) {
	site, w := genWriteSite(t, workload.DocConfig{Depth: 3, Fanout: 4, Attrs: 2, Seed: 1})
	type gen struct {
		sd    weak.Pointer[StoredDoc]
		doc   weak.Pointer[dom.Document]
		arena weak.Pointer[dom.Arena]
	}
	var gens []gen
	scripts := []string{
		"set-attr /root/e1x0[1] a0=v",
		"replace-text /root/e1x1[1]/e2x0[1]/e3x2[1] t",
		"insert-into /root/e1x2[1]/e2x0[1] <e3x0 a0=\"1\">n</e3x0>",
		"delete /root/e1x2[1]/e2x0[1]/e3x0[3]",
	}
	for i := 0; i < 65; i++ {
		script := scripts[i%len(scripts)]
		if i%len(scripts) == 0 {
			script += string(rune('a' + i%26))
		}
		if err := site.ApplyUpdate(context.Background(), w, "doc.xml", script); err != nil {
			t.Fatalf("update %d (%q): %v", i, script, err)
		}
		sd := site.Docs.Doc("doc.xml")
		gens = append(gens, gen{weak.Make(sd), weak.Make(sd.Doc), weak.Make(sd.Arena)})
	}
	runtime.GC()
	runtime.GC()
	for i, g := range gens[:len(gens)-2] {
		if g.sd.Value() != nil || g.doc.Value() != nil || g.arena.Value() != nil {
			t.Fatalf("generation %d of %d is still reachable (StoredDoc %v, Doc %v, Arena %v)",
				i, len(gens), g.sd.Value() != nil, g.doc.Value() != nil, g.arena.Value() != nil)
		}
	}
	if gens[len(gens)-1].sd.Value() == nil {
		t.Fatal("the stored generation was collected")
	}
	runtime.KeepAlive(site)
}
