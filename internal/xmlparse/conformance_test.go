package xmlparse

import (
	"strings"
	"testing"
)

// conformanceAccept is a table of well-formed documents the parser
// must accept, covering corners of the XML 1.0 grammar within the
// implemented scope.
var conformanceAccept = map[string]string{
	"empty element with space":   `<a />`,
	"end tag with space":         `<a></a >`,
	"single-quoted attribute":    `<a x='v'/>`,
	"mixed quotes":               `<a x='a"b' y="a'b"/>`,
	"name with dots and dashes":  `<a-b.c_d/>`,
	"name with colon":            `<ns:a xmlns:ns="ignored-as-attr"/>`,
	"unicode names":              `<élément attribut="v">données</élément>`,
	"unicode content":            `<a>日本語テキスト</a>`,
	"numeric char refs mixed":    `<a>&#x263A;&#9731;</a>`,
	"CR in content":              "<a>line1\r\nline2</a>",
	"tabs in attributes":         "<a x=\"a\tb\"/>",
	"deeply nested":              strings.Repeat("<d>", 200) + "x" + strings.Repeat("</d>", 200),
	"many attributes":            `<a a1="1" a2="2" a3="3" a4="4" a5="5" a6="6" a7="7" a8="8"/>`,
	"comment before doctype":     `<!--c--><!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>`,
	"PI before doctype":          `<?style x?><!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>`,
	"empty internal subset":      `<!DOCTYPE a []><a/>`,
	"doctype without subset":     `<!DOCTYPE a><a/>`,
	"cdata with lone brackets":   `<a><![CDATA[ ] ]] > ]></a]]></a>`,
	"comment with angle":         `<a><!-- <b> not markup --></a>`,
	"gt in content":              `<a>a > b</a>`,
	"quote entities in attr":     `<a x="&quot;&apos;"/>`,
	"whitespace around equals":   `<a x = "v"/>`,
	"empty attribute value":      `<a x=""/>`,
	"xml decl minimal":           `<?xml version="1.0"?><a/>`,
	"standalone yes":             `<?xml version="1.0" standalone="yes"?><a/>`,
	"trailing whitespace":        "<a/> \n\t ",
	"leading PI and comment mix": "<?p1 a?><!--c1--><?p2 b?><a/>",
}

func TestConformanceAccept(t *testing.T) {
	for name, src := range conformanceAccept {
		if _, err := Parse(src, Options{KeepComments: true}); err != nil {
			t.Errorf("%s: Parse(%q) failed: %v", name, src, err)
		}
	}
}

// conformanceReject is a table of malformed documents the parser must
// reject.
var conformanceReject = map[string]string{
	"bare ampersand":          `<a>&</a>`,
	"entity without semi":     `<a>&amp</a>`,
	"space in entity":         `<a>& amp;</a>`,
	"tag starting with digit": `<1a/>`,
	"tag starting with dash":  `<-a/>`,
	"attr starting with dot":  `<a .x="1"/>`,
	"unclosed comment dash":   `<a><!-- c ---></a>`,
	"doctype after element":   `<a/><!DOCTYPE a>`,
	"two doctypes":            `<!DOCTYPE a><!DOCTYPE a><a/>`,
	"end tag only":            `</a>`,
	"lone cdata":              `<![CDATA[x]]>`,
	"text at top level":       `x<a/>`,
	"attr without value":      `<a x></a>`,
	"nested quotes":           `<a x="a"b"/>`,
	"empty tag name":          `<></>`,
	"bad standalone":          `<?xml version="1.0" standalone="maybe"?><a/>`,
	"decl not first":          ` <?xml version="1.0"?><a/>`,
	"char ref overflow":       `<a>&#99999999999999;</a>`,
	"char ref control":        `<a>&#1;</a>`,
	"unterminated entity ref": `<a>&amp`,
}

func TestConformanceReject(t *testing.T) {
	for name, src := range conformanceReject {
		if _, err := Parse(src, Options{}); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, src)
		}
	}
}

// TestCDATAEdge exercises the bracket-heavy CDATA acceptance case in
// detail (the parser must find the real terminator).
func TestCDATAEdge(t *testing.T) {
	res := parseOK(t, `<a><![CDATA[ ] ]] > ]></a]]></a>`, Options{})
	want := ` ] ]] > ]></a`
	if got := res.Doc.DocumentElement().Text(); got != want {
		t.Errorf("CDATA content = %q, want %q", got, want)
	}
}

// TestCarriageReturnPreserved: the parser keeps CR as-is in content
// (full end-of-line normalization is out of scope and documented); the
// serializer escapes it so it round-trips.
func TestCarriageReturnPreserved(t *testing.T) {
	res := parseOK(t, "<a>x\ry</a>", Options{})
	out := res.Doc.String()
	if !strings.Contains(out, "&#13;") {
		t.Errorf("CR not escaped on output: %q", out)
	}
	res2 := parseOK(t, out, Options{})
	if res2.Doc.DocumentElement().Text() != "x\ry" {
		t.Errorf("CR lost in round trip: %q", res2.Doc.DocumentElement().Text())
	}
}
