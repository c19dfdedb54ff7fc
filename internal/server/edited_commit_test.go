package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/update"
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

// newParityStore registers the parity DTD and one base document.
func newParityStore(t testing.TB, base string) (*DocStore, *StoredDoc) {
	t.Helper()
	s := NewDocStore()
	if err := s.AddDTD(parityDTDURI, parityDTD); err != nil {
		t.Fatal(err)
	}
	prev, err := s.prepareDocument("doc.xml", base)
	if err != nil {
		t.Fatal(err)
	}
	return s, prev
}

// checkEditedParity applies script to prev with everything visible and
// writable and commits the result directly. The oracle is the text
// path: prepareDocument on the committed Source must rebuild the same
// nodes, arena and text, and prepareDocument on the edit serialized
// without normalization — the pipeline the direct commit replaced —
// must reach the same validity verdict and the same tree. It reports
// whether the edit committed.
func checkEditedParity(t testing.TB, s *DocStore, prev *StoredDoc, src string) bool {
	t.Helper()
	script, err := update.ParseScript(src)
	if err != nil {
		return false
	}
	all := func(int32) bool { return true }
	res, report := update.Resolve(context.Background(), prev.Doc, script, all, all)
	if report != nil {
		return false
	}
	out, _, err := update.Apply(prev.Doc, script, res.Targets)
	if err != nil {
		return false
	}
	replaced, replacedErr := s.prepareDocument(prev.URI, out.String())
	nd, err := s.prepareEdited(context.Background(), nil, prev, out)
	if (err == nil) != (replacedErr == nil) {
		t.Fatalf("%q: verdicts differ: direct commit %v, reparse %v", src, err, replacedErr)
	}
	if err != nil {
		return false
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
	return true
}

func TestEditedCommitParity(t *testing.T) {
	for b, base := range parityBases {
		s, prev := newParityStore(t, base)
		committed := 0
		for _, src := range paritySeeds {
			if checkEditedParity(t, s, prev, src) {
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
		if _, err := s.prepareEdited(context.Background(), nil, prev, out); err == nil {
			t.Fatal("direct commit accepted a document without a document element")
		}
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

func FuzzEditedCommitParity(f *testing.F) {
	for _, src := range paritySeeds {
		for b := range parityBases {
			f.Add(src, uint8(b))
		}
	}
	stores := make([]*DocStore, len(parityBases))
	prevs := make([]*StoredDoc, len(parityBases))
	for b, base := range parityBases {
		stores[b], prevs[b] = newParityStore(f, base)
	}
	f.Fuzz(func(t *testing.T, src string, base uint8) {
		b := int(base) % len(parityBases)
		checkEditedParity(t, stores[b], prevs[b], src)
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
// returns "" when every array agrees.
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
			a.Defaulted(i) != b.Defaulted(i) {
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
