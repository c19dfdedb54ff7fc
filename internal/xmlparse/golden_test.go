package xmlparse_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// goldenPath holds the parser golden: for every input below, under
// each option set, the accepted tree (kind, name, data, order,
// defaulted flag) or the rejection's SyntaxError line, column and
// message. It pins the parser's observable output, so a change to the
// scanner must reproduce it byte for byte; FuzzParse alone only checks
// that the parser agrees with itself.
const goldenPath = "testdata/parse_golden.txt"

// positionCases put errors where line/column bookkeeping is easy to get
// wrong: after multi-byte UTF-8, after CRLF line ends, after a
// byte-order mark, and inside (or just after) entity text spliced into
// the input.
var positionCases = []string{
	"<données>日本語</donnees>",
	"<a>\n  <é x='1' x='2'/></a>",
	"<a>ü\n\tß<b c=\"ö\" d></b></a>",
	"<a>日本語 &bogus; テキスト</a>",
	"<a>\r\n<b>\r\n</a>",
	"<a\r\n x=1/>",
	"<a>\r\n  text\r\n  ]]></a>",
	"\xef\xbb\xbf<a>\n<b></a>",
	"\xef\xbb\xbf<a x=1/>",
	"\xef\xbb\xbf\n\n<a>x</a>trailing",
	"<!DOCTYPE a [<!ENTITY e \"<b>\n<c></b>\">]><a>&e;</a>",
	"<!DOCTYPE a [<!ENTITY e \"x\n&undefined;\">]><a>\n&e;</a>",
	"<!DOCTYPE a [<!ENTITY e \"<b>\n</b>\">]><a>&e;<c></a>",
	"<!DOCTYPE a [<!ENTITY e \"<b x='1'>\n日本</b>\">]><a>&e;&e;\n<c></a>",
	"<!DOCTYPE a [<!ENTITY e \"&f;\"><!ENTITY f \"<b>\r\n</c>\">]><a>&e;</a>",
	"<!DOCTYPE a [<!ENTITY e \"<b>ok</b>\">]><a>&e;\n&e;<b x=\"&e;\"/></a>",
	"<!DOCTYPE a [<!ENTITY e \"<b>ok</b>\"><!ENTITY t \"x&#38;y\">]><a>&e;\n&t;&e; tail &lt;</a>",
	"<!DOCTYPE a [<!ENTITY e \"<b>ok</b>\"><!ENTITY t \"x&amp;y\">]><a>&e;\n&t;&e; tail &lt;</a>",
	"<!DOCTYPE a [<!ENTITY t \"v&#9;w\">]><a x=\"1&t;\t2\r\n3 &amp; &#65;\" y='\xff\xfe'>\xc3(\xff</a>",
}

// goldenOptions are the option sets every input is parsed under.
var goldenOptions = []struct {
	name string
	opts xmlparse.Options
}{
	{"default", xmlparse.Options{}},
	{"keep+defaults", xmlparse.Options{KeepWhitespace: true, KeepComments: true, ApplyDefaults: true}},
}

// defaultsDocument is a generated depth-3 document whose internal
// subset declares attribute defaults (value and #FIXED) next to the
// generated declarations, with an entity and character data that needs
// escaping, so the golden covers defaulting and entity expansion on a
// realistically shaped tree.
func defaultsDocument() string {
	cfg := workload.DocConfig{Depth: 3, Fanout: 3, Attrs: 2, Seed: 3}
	var subset strings.Builder
	subset.WriteString(workload.GenDTD(cfg).String())
	for level := 1; level <= cfg.Depth; level++ {
		for k := 0; k < 3; k++ {
			fmt.Fprintf(&subset, "<!ATTLIST %s kind (plain|rich) \"plain\" ver CDATA #FIXED \"1.%d\">\n",
				workload.ElemName(level, k), level)
		}
	}
	subset.WriteString("<!ENTITY amp2 \"a&amp;b <i>&#62;</i>\">\n")
	doc := workload.GenDocument(cfg)
	doc.DocType = &dom.DocType{Name: "root", InternalSubset: subset.String()}
	src := doc.String()
	// Give some leaves entity references, escapes and explicit values
	// for the defaulted attributes.
	src = strings.Replace(src, ">v", ">&amp2;&lt;v", 5)
	src = strings.Replace(src, `a0="1"`, `a0="1" kind="rich"`, 3)
	return src
}

// fuzzCorpus reads the checked-in FuzzParse corpus files.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: unexpected corpus format", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, s)
	}
	return out
}

// goldenInputs lists every input with a stable label.
func goldenInputs(t *testing.T) [][2]string {
	var in [][2]string
	for _, table := range []struct {
		prefix string
		cases  map[string]string
	}{{"accept", xmlparse.ConformanceAccept}, {"reject", xmlparse.ConformanceReject}} {
		names := make([]string, 0, len(table.cases))
		for name := range table.cases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			in = append(in, [2]string{table.prefix + ": " + name, table.cases[name]})
		}
	}
	for i, s := range xmlparse.SyntaxErrorCases {
		in = append(in, [2]string{fmt.Sprintf("syntax %d", i), s})
	}
	for i, s := range xmlparse.FuzzParseSeeds {
		in = append(in, [2]string{fmt.Sprintf("fuzz seed %d", i), s})
	}
	for i, s := range fuzzCorpus(t) {
		in = append(in, [2]string{fmt.Sprintf("fuzz corpus %d", i), s})
	}
	in = append(in, [2]string{"generated depth-3 with defaults", defaultsDocument()})
	for i, s := range positionCases {
		in = append(in, [2]string{fmt.Sprintf("position %d", i), s})
	}
	return in
}

// dumpParse renders one parse outcome in the golden's line format.
func dumpParse(w *strings.Builder, res *xmlparse.Result, err error) {
	if err != nil {
		var se *xmlparse.SyntaxError
		if !errors.As(err, &se) {
			fmt.Fprintf(w, "error %T %q\n", err, err.Error())
			return
		}
		fmt.Fprintf(w, "error line=%d col=%d %q\n", se.Line, se.Col, se.Msg)
		return
	}
	d := res.Doc
	fmt.Fprintf(w, "doc version=%q encoding=%q standalone=%q dtd=%v\n", d.Version, d.Encoding, d.Standalone, res.DTD != nil)
	if dt := d.DocType; dt != nil {
		fmt.Fprintf(w, "doctype %q public=%q system=%q subset=%q\n", dt.Name, dt.PublicID, dt.SystemID, dt.InternalSubset)
	}
	var walk func(n *dom.Node, depth int)
	walk = func(n *dom.Node, depth int) {
		fmt.Fprintf(w, "%s%d %s %q %q", strings.Repeat(" ", depth), n.Order, n.Type, n.Name, n.Data)
		if n.Defaulted {
			w.WriteString(" defaulted")
		}
		w.WriteByte('\n')
		for _, a := range n.Attrs {
			walk(a, depth+1)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Node, 0)
}

// parseGolden renders the whole golden.
func parseGolden(t *testing.T) string {
	var w strings.Builder
	for _, in := range goldenInputs(t) {
		for _, o := range goldenOptions {
			fmt.Fprintf(&w, "== %s [%s] %q\n", in[0], o.name, in[1])
			res, err := xmlparse.Parse(in[1], o.opts)
			if err == nil {
				checkArenaStructure(t, res.Doc, res.Arena)
			}
			dumpParse(&w, res, err)
		}
	}
	return w.String()
}

// TestParseGolden checks the parser against the captured golden, and
// reports the first differing record.
func TestParseGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := parseGolden(t)
	if got == string(want) {
		return
	}
	gs, ws := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(string(want)))
	gs.Buffer(nil, 1<<20)
	ws.Buffer(nil, 1<<20)
	header := ""
	for line := 1; ; line++ {
		gok, wok := gs.Scan(), ws.Scan()
		if !gok && !wok {
			break
		}
		if strings.HasPrefix(ws.Text(), "== ") {
			header = ws.Text()
		}
		if gok != wok || gs.Text() != ws.Text() {
			t.Fatalf("%s line %d differs (in %s):\n got: %s\nwant: %s", goldenPath, line, header, gs.Text(), ws.Text())
		}
	}
	t.Fatalf("%s differs from the parser's output", goldenPath)
}
