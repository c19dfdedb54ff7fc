package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/update"
	"xmlsec/internal/workload"
)

// The parity fixture: a DTD with value, #FIXED and enumerated defaults,
// mixed content and an EMPTY element with a default of its own, and a
// document whose stored tree already holds adjacent text nodes (the
// comment between "alpha" and "beta" is dropped at parse).
const (
	parityDTDURI = "parity.dtd"
	parityDTD    = `<!ELEMENT doc (item*, note?)>
<!ATTLIST doc version CDATA "1">
<!ELEMENT item (#PCDATA | b | i)*>
<!ATTLIST item
	id ID #IMPLIED
	kind (x|y) "x"
	flag CDATA #FIXED "on"
	label CDATA #IMPLIED>
<!ELEMENT b (#PCDATA)>
<!ELEMENT i EMPTY>
<!ATTLIST i size CDATA "3">
<!ELEMENT note (#PCDATA)>
`
	parityBody = `<doc><item id="a1">one <b>bold</b> two<![CDATA[ <raw> ]]>three</item>` +
		`<item kind="y">x<i/>y</item><item>alpha<!--c-->beta</item><note>n</note></doc>`
)

// parityBases are the stored documents the oracle edits: bound to the
// registered DTD, bound through an internal subset as well (which
// resolves to a freshly parsed DTD), and DTD-less (no validation).
var parityBases = []string{
	`<?xml version="1.0"?>` + "\n" + `<!DOCTYPE doc SYSTEM "parity.dtd">` + "\n" + parityBody,
	`<!DOCTYPE doc SYSTEM "parity.dtd" [<!ENTITY amp2 "&#38;#38;"><!ATTLIST note lang CDATA "en">]>` + parityBody,
	parityBody,
}

// paritySeeds cover what the reparse used to do implicitly: merging
// text around a deleted element, around a dropped comment and next to
// CDATA; dropping whitespace-only text; re-supplying the default of a
// deleted attribute; clearing Defaulted under set-attr; defaulting an
// inserted element; and escaping-sensitive values. Some are invalid
// against the DTD, so the verdicts are compared too.
var paritySeeds = []string{
	"delete /doc/item[1]/b",
	"replace-text /doc/item[3] gamma",
	"insert-into /doc/item[2] a<!--c-->b",
	"insert-into /doc/item[1] <b>x</b><!--c--> <!--d-->tail",
	`{"ops":[{"op":"replace-text","target":"/doc/note","text":"  \t "}]}`,
	`{"ops":[{"op":"insert-into","target":"/doc/item[2]","xml":"<b>x</b> "}]}`,
	"delete /doc/item[2]/@kind",
	"delete /doc/@version",
	"set-attr /doc/item[1] kind=y",
	"set-attr /doc/item[3] flag=on",
	"set-attr /doc/item[3] flag=off",
	"insert-into /doc/item[2] <i/>",
	"insert-before /doc/note <item><i size=\"4\"/><i/></item>",
	"insert-into /doc/item[1] <![CDATA[a]]><![CDATA[]]>tail<![CDATA[ ]]>",
	"replace-text /doc/item[1] plain",
	"delete /doc/item[1]/b\ndelete /doc/item[2]/i",
	`{"ops":[{"op":"set-attr","target":"/doc/item[1]","name":"label","value":"a\tb\nc\rd&e<f\"g"}]}`,
	`{"ops":[{"op":"replace-text","target":"/doc/note","text":"x\ty\r\nz & w ]]> <q>"}]}`,
	"set-attr /doc/item[1] label=\xff\xfeok\xc3",
	"replace-text /doc/note caf\xc3\xa9 \xe9",
	"insert-into /doc <bogus/>",
	"insert-into /doc/note <b/>",
	"set-attr /doc/item[1] id=a1\nset-attr /doc/item[2] id=a1",
	"replace-node /doc/item[2] <item kind=\"x\">new<b/></item>",
	"insert-into /doc/item[3] <?pi   data?>text",
}

// The second fixture: a DTD with ID and IDREF attributes, so a commit
// must still check ID uniqueness and IDREF resolution across the whole
// document however small the edit.
const (
	idrefDTDURI = "idref.dtd"
	idrefDTD    = `<!ELEMENT r (p*, ref*)>
<!ELEMENT p (#PCDATA)>
<!ATTLIST p id ID #REQUIRED>
<!ELEMENT ref EMPTY>
<!ATTLIST ref to IDREF #REQUIRED tos IDREFS #IMPLIED>
`
	idrefBase = `<!DOCTYPE r SYSTEM "idref.dtd"><r><p id="p1">one</p><p id="p2">two</p><ref to="p1"/><ref to="p2" tos="p1 p2"/></r>`
)

// putDTDStep, as one script of a chain, re-registers the parity DTD
// with a new default for b, so the next commit must judge and default
// against the replacement.
const putDTDStep = "putdtd"

// chainSep separates the scripts of a chain in the fuzz input.
const chainSep = "\n;;\n"

// parityChains are sequences of commits, each on the generation the
// previous one left: after the first, a commit builds on an edited
// generation and is local. They cover inserting before the first child
// and after the last, deletions leaving text neighbours in a touched
// parent, two operations on one parent and on nested parents,
// replace-node, names new to the symbol table, and an edit right after
// the DTD was replaced.
var parityChains = [][]string{
	{"set-attr /doc/item[2] label=a", "insert-before /doc/item[1] <item>first</item>", "delete /doc/note", "insert-after /doc/item[4] <item>last<b>x</b></item>"},
	{"insert-into /doc/item[2] tail", "delete /doc/item[2]/i", "insert-into /doc/item[2] <i/>", "delete /doc/item[2]/i"},
	{"delete /doc/item[1]/b", "set-attr /doc/item[1] label=z\ninsert-into /doc/item[1] <i/>", "replace-text /doc/item[1] again"},
	{"replace-text /doc/note n2", "insert-before /doc/note <item>n</item>\ndelete /doc/item[1]/b", "replace-node /doc/item[4] <item kind=\"y\"><i/></item>"},
	{"replace-node /doc/item[2] <item>r</item>", "replace-node /doc/item[2] <item>s<b>t</b></item>", "set-attr /doc/item[2]/b label=nope"},
	{"insert-into /doc/item[3] <fresh a=\"1\">new</fresh>", "set-attr /doc/item[3] newattr=v", "delete /doc/item[3]/@newattr"},
	{"delete /doc/item[1]/b", putDTDStep, "insert-into /doc/item[2] <b>bold</b>", "set-attr /doc/item[3] label=after"},
	{putDTDStep, "set-attr /doc/item[1] label=1", "delete /doc/item[1]", "insert-into /doc/item[1] <b>c</b>"},
	{"set-attr /doc/item[3] label=x\nset-attr /doc/item[3] kind=y\ndelete /doc/item[3]/@kind", "insert-after /doc/item[1]/b <i/>", "delete /doc/item[1]/i\ndelete /doc/item[1]/b"},
	{"delete /r/ref[1]", "delete /r/p[1]", "insert-before /r/ref[1] <p id=\"p9\">nine</p>", "set-attr /r/ref[1] to=p9"},
	{"set-attr /r/p[2] id=p3", "set-attr /r/ref[2] tos=p1", "set-attr /r/ref[2] to=p1", "delete /r/p[2]"},
}

// newParityStore registers both fixture DTDs and prepares one base
// document from its text.
func newParityStore(t testing.TB, base string) (*DocStore, *StoredDoc) {
	t.Helper()
	s := NewDocStore()
	if err := s.AddDTD(parityDTDURI, parityDTD); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDTD(idrefDTDURI, idrefDTD); err != nil {
		t.Fatal(err)
	}
	prev, err := s.prepareDocument("doc.xml", base)
	if err != nil {
		t.Fatal(err)
	}
	return s, prev
}

// replaceParityDTD re-registers the parity DTD with a default for b, as
// PutDTD does.
func replaceParityDTD(t testing.TB, s *DocStore) {
	t.Helper()
	if err := s.AddDTD(parityDTDURI, parityDTD+`<!ATTLIST b style CDATA "plain">`+"\n"); err != nil {
		t.Fatal(err)
	}
}

// editFor resolves script against prev with everything visible and
// writable and applies it, or returns nil when it does not apply.
func editFor(prev *StoredDoc, script *update.Script) *dom.Edit {
	all := func(int32) bool { return true }
	res, report := update.Resolve(context.Background(), prev.Doc, script, all, all)
	if report != nil {
		return nil
	}
	ed, _, err := update.ApplyEdit(prev.Doc, script, res.Targets)
	if err != nil {
		return nil
	}
	return ed
}

// checkEditedParity applies script to prev with everything visible and
// writable and commits the result directly. The oracle is the text
// path: prepareDocument on the committed Source must rebuild the same
// nodes, arena and text, and prepareDocument on the edit serialized
// without normalization — the pipeline the direct commit replaced —
// must reach the same validity verdict and the same tree. The same
// edit committed with the whole document as its footprint must reach
// the same verdict and produce the same generation byte for byte, so a
// local commit of an edited prev is checked against the whole-document
// one. It returns the committed generation, or nil.
func checkEditedParity(t testing.TB, s *DocStore, prev *StoredDoc, src string) *StoredDoc {
	t.Helper()
	script, err := update.ParseScript(src)
	if err != nil {
		return nil
	}
	ed, whole := editFor(prev, script), editFor(prev, script)
	if ed == nil {
		return nil
	}
	replaced, replacedErr := s.prepareDocument(prev.URI, ed.Doc().String())
	nd, err := s.prepareEdited(context.Background(), nil, prev, ed)
	wd, wholeErr := s.prepareEdited(context.Background(), nil, prev, dom.WholeEdit(whole.Doc()))
	if (err == nil) != (replacedErr == nil) || (err == nil) != (wholeErr == nil) {
		t.Fatalf("%q: verdicts differ: direct commit %v, whole-document commit %v, reparse %v", src, err, wholeErr, replacedErr)
	}
	if err != nil {
		return nil
	}
	if nd.Source != wd.Source {
		t.Fatalf("%q: local and whole-document commits differ:\nlocal %q\nwhole %q", src, nd.Source, wd.Source)
	}
	if diff := treeDiff(nd.Doc, wd.Doc); diff != "" {
		t.Fatalf("%q: local tree differs from the whole-document commit's: %s", src, diff)
	}
	if diff := arenaDiff(nd.Arena, wd.Arena); diff != "" {
		t.Fatalf("%q: local arena differs from the whole-document commit's: %s", src, diff)
	}
	oracle, err := s.prepareDocument(prev.URI, nd.Source)
	if err != nil {
		t.Fatalf("%q: committed source does not prepare: %v\n%s", src, err, nd.Source)
	}
	if diff := treeDiff(nd.Doc, oracle.Doc); diff != "" {
		t.Fatalf("%q: committed tree differs from parse(Source): %s\n%s", src, diff, nd.Source)
	}
	if diff := treeDiff(nd.Doc, replaced.Doc); diff != "" {
		t.Fatalf("%q: committed tree differs from parse(serialize(apply)): %s", src, diff)
	}
	if diff := arenaDiff(nd.Arena, oracle.Arena); diff != "" {
		t.Fatalf("%q: arenas differ: %s", src, diff)
	}
	if got := oracle.Doc.SourceString(); got != nd.Source {
		t.Fatalf("%q: Source is not a fixed point:\ncommitted %q\nreparsed  %q", src, nd.Source, got)
	}
	if nd.Hash != contentHash(nd.Source) || nd.DTDURI != oracle.DTDURI || (nd.DTD == nil) != (oracle.DTD == nil) {
		t.Fatalf("%q: hash or DTD binding differs from the oracle's", src)
	}
	return nd
}

// checkParityChain commits steps in order, each on the last generation
// that committed, checking parity after every commit; putDTDStep
// replaces the parity DTD instead. It returns how many steps committed.
func checkParityChain(t testing.TB, s *DocStore, prev *StoredDoc, steps []string) int {
	t.Helper()
	committed := 0
	for _, src := range steps {
		if src == putDTDStep {
			replaceParityDTD(t, s)
			continue
		}
		if nd := checkEditedParity(t, s, prev, src); nd != nil {
			prev = nd
			committed++
		}
	}
	return committed
}

func TestEditedCommitParity(t *testing.T) {
	for b, base := range parityBases {
		s, prev := newParityStore(t, base)
		committed := 0
		for _, src := range paritySeeds {
			if checkEditedParity(t, s, prev, src) != nil {
				committed++
			}
		}
		// Guard against a vacuous pass: most seeds are valid edits.
		if committed < len(paritySeeds)/2 {
			t.Errorf("base %d: only %d of %d seeds committed", b, committed, len(paritySeeds))
		}
		// Resolve never targets the document element for deletion, but
		// a delta read back from the log could: both paths refuse it.
		out := prev.Doc.Clone()
		out.Node.RemoveChild(out.DocumentElement())
		if _, err := s.prepareDocument(prev.URI, out.String()); err == nil {
			t.Fatal("reparse accepted a document without a document element")
		}
		if _, err := s.prepareEdited(context.Background(), nil, prev, dom.WholeEdit(out)); err == nil {
			t.Fatal("direct commit accepted a document without a document element")
		}
	}
}

// TestEditedCommitParityChained commits chains of scripts, so that
// local commits build on generations that were themselves spliced,
// and checks every commit against the oracles; and it checks that
// every seed also holds as the second commit of a chain, on an edited
// generation.
func TestEditedCommitParityChained(t *testing.T) {
	for b, base := range append(parityBases, idrefBase) {
		for c, chain := range parityChains {
			s, prev := newParityStore(t, base)
			n := checkParityChain(t, s, prev, chain)
			if strings.HasPrefix(chain[0], "delete /r/") || strings.HasPrefix(chain[0], "set-attr /r/") {
				if (b == len(parityBases)) != (n > 0) {
					t.Errorf("base %d, chain %d: %d commits", b, c, n)
				}
			}
		}
		if b == len(parityBases) {
			continue
		}
		s, prev := newParityStore(t, base)
		first := checkEditedParity(t, s, prev, "set-attr /doc/item[1] label=chained")
		if first == nil {
			t.Fatalf("base %d: the first commit failed", b)
		}
		committed := 0
		for _, src := range paritySeeds {
			if checkEditedParity(t, s, first, src) != nil {
				committed++
			}
		}
		if committed < len(paritySeeds)/2 {
			t.Errorf("base %d: only %d of %d seeds committed on an edited generation", b, committed, len(paritySeeds))
		}
	}
}

// TestEditedCommitParityRandomChain commits a long chain of random
// scripts (the generator the write benchmarks use: every operation
// kind, several operations per script) on one generated document, so
// local commits splice generations that were spliced many times, and
// checks every commit against the oracles. The document is DTD-less,
// because the generator's inserted elements carry fresh names.
func TestEditedCommitParityRandomChain(t *testing.T) {
	cfg := workload.DocConfig{Depth: 4, Fanout: 3, Labels: 4, Attrs: 2, Seed: 5}
	s := NewDocStore()
	prev, err := s.prepareDocument("gen.xml", workload.GenDocument(cfg).String())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	committed := 0
	for i := 0; i < 60; i++ {
		script := update.RandomScript(rng, prev.Doc, 1+rng.Intn(5))
		if script == nil {
			t.Fatalf("step %d: the generator returned no script", i)
		}
		if nd := checkEditedParity(t, s, prev, script.Canonical()); nd != nil {
			prev = nd
			committed++
		}
	}
	if committed < 50 {
		t.Fatalf("only %d of 60 random scripts committed", committed)
	}
}

// TestEditedCommitIDRefs pins that a local commit still checks IDs and
// IDREFs across the whole document: deleting the element an untouched
// IDREF names, or reusing an ID, must fail on an edited generation.
func TestEditedCommitIDRefs(t *testing.T) {
	s, prev := newParityStore(t, idrefBase)
	prev = checkEditedParity(t, s, prev, "insert-before /r/ref[1] <p id=\"p3\">three</p>")
	if prev == nil || prev.canon == nil {
		t.Fatal("the first edit did not commit an edited generation")
	}
	for _, src := range []string{"delete /r/p[1]", "delete /r/p[2]", "set-attr /r/p[3] id=p1", "set-attr /r/ref[1] to=p4", "set-attr /r/ref[2] tos=p1 p5"} {
		script, err := update.ParseScript(src)
		if err != nil {
			t.Fatal(err)
		}
		ed := editFor(prev, script)
		if ed == nil {
			t.Fatalf("%q does not apply", src)
		}
		if _, err := s.prepareEdited(context.Background(), nil, prev, ed); err == nil || !ed.Local() {
			t.Errorf("%q: local %v, err %v; want a local commit that fails validation", src, ed.Local(), err)
		}
		checkEditedParity(t, s, prev, src)
	}
	if checkEditedParity(t, s, prev, "delete /r/p[3]") == nil {
		t.Error("deleting an unreferenced element failed")
	}
}

// TestEditedCommitParityOnSite checks every write path of a site —
// script updates, write-through-views PUTs (whose merged tree is
// committed directly), and the text PUT — leaves a generation equal to
// the one its own Source parses to.
func TestEditedCommitParityOnSite(t *testing.T) {
	site, sam := writerSite(t)
	check := func(what string) {
		t.Helper()
		sd := site.Docs.Doc(labexample.DocURI)
		oracle, err := site.Docs.prepareDocument(sd.URI, sd.Source)
		if err != nil {
			t.Fatalf("%s: stored Source does not prepare: %v", what, err)
		}
		if diff := treeDiff(sd.Doc, oracle.Doc); diff != "" {
			t.Fatalf("%s: stored tree differs from parse(Source): %s", what, diff)
		}
		if diff := arenaDiff(sd.Arena, oracle.Arena); diff != "" {
			t.Fatalf("%s: arenas differ: %s", what, diff)
		}
		if sd.Hash != contentHash(sd.Source) {
			t.Fatalf("%s: Hash is not contentHash(Source)", what)
		}
	}
	for _, script := range []string{
		"replace-text //flname Ada  Hopper",
		"delete /laboratory/project[1]/fund/@sponsor",
		"insert-into /laboratory/project[2] <fund>1<!--x-->2</fund>",
		`{"ops":[{"op":"set-attr","target":"/laboratory/project[1]","name":"name","value":"a\tb&c"}]}`,
	} {
		if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI, script); err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		check(script)
	}
	body := strings.Replace(site.Docs.Doc(labexample.DocURI).Source, "Bob Codd", "Bob <!-- hidden -->Codd", 1)
	body = strings.Replace(body, "<title>XML Views</title>", "<title>  XML\tViews </title>", 1)
	if err := site.Update(sam, labexample.DocURI, body); err != nil {
		t.Fatal(err)
	}
	check("write-through-views PUT")
	if err := site.PutDocument(labexample.DocURI, labexample.DocSource); err != nil {
		t.Fatal(err)
	}
	check("PutDocument")
}

// FuzzEditedCommitParity commits a chain of up to four scripts,
// separated by chainSep, on one of the parity bases, checking parity
// after every commit.
func FuzzEditedCommitParity(f *testing.F) {
	bases := append(parityBases, idrefBase)
	for _, src := range paritySeeds {
		for b := range parityBases {
			f.Add(src, uint8(b))
		}
	}
	for _, chain := range parityChains {
		for b := range bases {
			f.Add(strings.Join(chain, chainSep), uint8(b))
		}
	}
	f.Fuzz(func(t *testing.T, src string, base uint8) {
		steps := strings.SplitN(src, chainSep, 5)
		if len(steps) > 4 {
			return
		}
		s, prev := newParityStore(t, bases[int(base)%len(bases)])
		checkParityChain(t, s, prev, steps)
	})
}

// treeDiff describes the first difference between two documents in
// preorder — node kind, name, data, Defaulted and tree position — or
// returns "" when they agree.
func treeDiff(a, b *dom.Document) string {
	type entry struct {
		kind      dom.NodeType
		name      string
		data      string
		defaulted bool
		order     int
		parent    int
	}
	flatten := func(d *dom.Document) []entry {
		var out []entry
		d.Walk(func(n *dom.Node) bool {
			parent := -1
			if n.Parent != nil {
				parent = n.Parent.Order
			}
			out = append(out, entry{n.Type, n.Name, n.Data, n.Defaulted, n.Order, parent})
			return true
		})
		return out
	}
	ea, eb := flatten(a), flatten(b)
	for i := range min(len(ea), len(eb)) {
		if ea[i] != eb[i] {
			return fmt.Sprintf("node %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if len(ea) != len(eb) {
		return fmt.Sprintf("%d nodes vs %d", len(ea), len(eb))
	}
	if a.Version != b.Version || a.Encoding != b.Encoding || a.Standalone != b.Standalone ||
		(a.DocType == nil) != (b.DocType == nil) || a.DocType != nil && *a.DocType != *b.DocType {
		return "prologs differ"
	}
	if a.NodeCount() != b.NodeCount() {
		return fmt.Sprintf("NodeCount %d vs %d", a.NodeCount(), b.NodeCount())
	}
	return ""
}

// arenaDiff describes the first difference between two arenas, or
// returns "" when every array agrees: structure, names, raw and
// escaped (serialization-ready) data, and Defaulted marks.
func arenaDiff(a, b *dom.Arena) string {
	if a.Len() != b.Len() || a.SizeHint() != b.SizeHint() || a.CountElemAttrs() != b.CountElemAttrs() {
		return fmt.Sprintf("shape: len %d/%d, size hint %d/%d, elem+attrs %d/%d",
			a.Len(), b.Len(), a.SizeHint(), b.SizeHint(), a.CountElemAttrs(), b.CountElemAttrs())
	}
	for i := int32(0); i < int32(a.Len()); i++ {
		as, ae := a.Attrs(i)
		bs, be := b.Attrs(i)
		if a.Kind(i) != b.Kind(i) || a.Name(i) != b.Name(i) || a.Parent(i) != b.Parent(i) ||
			a.FirstChild(i) != b.FirstChild(i) || a.NextSibling(i) != b.NextSibling(i) ||
			as != bs || ae != be || string(a.RawData(i)) != string(b.RawData(i)) ||
			string(a.EscapedData(i)) != string(b.EscapedData(i)) || a.Defaulted(i) != b.Defaulted(i) {
			return fmt.Sprintf("index %d", i)
		}
	}
	return ""
}

// TestWritesAreJudgedAgainstTheReplacedDTD pins that a commit validates
// against the DTD its DOCTYPE resolves to now: after PutDTD, a script
// update and a write-through-views PUT that only the new DTD admits
// commit (with the new DTD's defaults), and edits only the old DTD
// admitted fail with the log and the store untouched.
func TestWritesAreJudgedAgainstTheReplacedDTD(t *testing.T) {
	dir := t.TempDir()
	site := durableLabSite(t, dir)
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	newDTD := strings.NewReplacer(
		"<!ELEMENT project (manager, paper*, fund?)>", "<!ELEMENT project (manager, paper*, fund?, note?)>\n<!ELEMENT note (#PCDATA)>",
		"<!ATTLIST fund sponsor CDATA #IMPLIED>", "<!ATTLIST fund sponsor (MURST|CNR) #IMPLIED>",
		"<!ATTLIST paper category (private|public) #REQUIRED>", `<!ATTLIST paper category (private|public) #REQUIRED lang CDATA "en">`,
	).Replace(labexample.DTDSource)
	if newDTD == labexample.DTDSource {
		t.Fatal("DTD rewrite did not apply")
	}
	if err := site.PutDTD(labexample.DTDURI, newDTD); err != nil {
		t.Fatal(err)
	}

	rejected := func(what string, write func() error) {
		t.Helper()
		before, lsn := site.Docs.Doc(labexample.DocURI), site.WALStats().LastLSN
		if err := write(); err == nil || !strings.Contains(err.Error(), "not valid") {
			t.Fatalf("%s: got %v, want a validity error", what, err)
		}
		if site.Docs.Doc(labexample.DocURI) != before || site.WALStats().LastLSN != lsn {
			t.Fatalf("%s: a rejected edit changed the store or the log", what)
		}
	}
	rejected("script update", func() error {
		return site.ApplyUpdate(context.Background(), sam, labexample.DocURI, "set-attr /laboratory/project[1]/fund sponsor=ACME")
	})
	rejected("PUT", func() error {
		src := site.Docs.Doc(labexample.DocURI).Source
		return site.Update(sam, labexample.DocURI, strings.Replace(src, `sponsor="MURST"`, `sponsor="ACME"`, 1))
	})

	if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI,
		"insert-into /laboratory/project[2] <note>scripted</note>"); err != nil {
		t.Fatalf("script update admitted by the new DTD: %v", err)
	}
	// The edit committed with the new DTD's default on every paper,
	// marked Defaulted and left out of Source, as a parse would.
	sd := site.Docs.Doc(labexample.DocURI)
	papers := 0
	sd.Doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.AttributeNode && n.Name == "lang" {
			if !n.Defaulted || n.Data != "en" {
				t.Errorf("%s: want the new DTD's default, got %q (defaulted %v)", n.Path(), n.Data, n.Defaulted)
			}
			papers++
		}
		return true
	})
	if papers != 4 || strings.Contains(sd.Source, "lang=") {
		t.Fatalf("%d papers defaulted; defaults must stay out of Source:\n%s", papers, sd.Source)
	}
	if err := site.Update(sam, labexample.DocURI, strings.Replace(sd.Source, "</fund>", "</fund><note>put</note>", 1)); err != nil {
		t.Fatalf("PUT admitted by the new DTD: %v", err)
	}
	sd = site.Docs.Doc(labexample.DocURI)
	if !strings.Contains(sd.Source, "<note>scripted</note>") || !strings.Contains(sd.Source, "<note>put</note>") {
		t.Fatalf("edits missing from the committed document:\n%s", sd.Source)
	}
	if err := site.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	recovered := durableLabSite(t, dir)
	defer recovered.CloseDurability()
	rd := recovered.Docs.Doc(labexample.DocURI)
	if rd.Source != sd.Source {
		t.Fatalf("recovery diverged:\n%s\nvs\n%s", rd.Source, sd.Source)
	}
	if diff := treeDiff(rd.Doc, sd.Doc); diff != "" {
		t.Fatalf("recovered tree differs: %s", diff)
	}
}

// TestContentHashIsSHA256 pins the record fingerprint to hex SHA-256 of
// the text, so logs written by earlier builds keep verifying; the text
// is hashed in pieces, so one longer than the piece size is checked too.
func TestContentHashIsSHA256(t *testing.T) {
	if got := contentHash("abc"); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("contentHash(abc) = %s", got)
	}
	long := strings.Repeat("0123456789", 1000)
	sum := sha256.Sum256([]byte(long))
	if got := contentHash(long); got != hex.EncodeToString(sum[:]) {
		t.Errorf("contentHash of %d bytes = %s", len(long), got)
	}
}
