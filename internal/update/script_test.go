package update

import (
	"strings"
	"testing"
)

func TestParseScriptJSONAndCompactAgree(t *testing.T) {
	j := `{"ops": [
		{"op": "insert-into", "target": "/site/regions", "xml": "<africa/>"},
		{"op": "set-attr", "target": "//item", "name": "checked", "value": "1"},
		{"op": "replace-text", "target": "/site/name", "text": "new name"},
		{"op": "delete", "target": "//mail"}
	]}`
	c := `
# the same script, compactly
insert-into /site/regions <africa/>
set-attr //item checked=1
replace-text /site/name new name
delete //mail
`
	sj, err := ParseScript(j)
	if err != nil {
		t.Fatalf("JSON form: %v", err)
	}
	sc, err := ParseScript(c)
	if err != nil {
		t.Fatalf("compact form: %v", err)
	}
	if sj.Canonical() != sc.Canonical() {
		t.Errorf("forms disagree:\njson:    %s\ncompact: %s", sj.Canonical(), sc.Canonical())
	}
	// The canonical form re-parses to itself — the WAL replay contract.
	again, err := ParseScript(sj.Canonical())
	if err != nil {
		t.Fatalf("canonical form: %v", err)
	}
	if again.Canonical() != sj.Canonical() {
		t.Errorf("canonical form is not a fixpoint")
	}
}

func TestParseScriptRejects(t *testing.T) {
	bad := []struct{ name, src string }{
		{"empty", "   "},
		{"unknown op", `{"ops":[{"op":"rename","target":"/a"}]}`},
		{"unknown field", `{"ops":[{"op":"delete","target":"/a","extra":1}]}`},
		{"no ops", `{"ops":[]}`},
		{"missing target", `{"ops":[{"op":"delete"}]}`},
		{"bad target", `{"ops":[{"op":"delete","target":"///"}]}`},
		{"bad xml", `{"ops":[{"op":"insert-into","target":"/a","xml":"<oops"}]}`},
		{"empty fragment", `{"ops":[{"op":"insert-into","target":"/a"}]}`},
		{"replace-node two elements", `{"ops":[{"op":"replace-node","target":"/a/b","xml":"<x/><y/>"}]}`},
		{"replace-node text", `{"ops":[{"op":"replace-node","target":"/a/b","xml":"just text"}]}`},
		{"set-attr no name", `{"ops":[{"op":"set-attr","target":"/a","value":"1"}]}`},
		{"set-attr name not an XML name", `{"ops":[{"op":"set-attr","target":"/a","name":"two words","value":"1"}]}`},
		{"compact set-attr name not an XML name", "set-attr /a 1st=v"},
		{"delete with argument", `{"ops":[{"op":"delete","target":"/a","xml":"<x/>"}]}`},
		{"mixed arguments", `{"ops":[{"op":"insert-into","target":"/a","xml":"<x/>","text":"t"}]}`},
		{"compact delete with argument", "delete /a <x/>"},
		{"compact set-attr without =", "set-attr /a checked"},
		{"compact one field", "delete"},
	}
	for _, tc := range bad {
		if _, err := ParseScript(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCompactFormKeepsArgumentSpaces(t *testing.T) {
	s, err := ParseScript("replace-text /a/b hello update world")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Ops[0].Text; got != "hello update world" {
		t.Errorf("text = %q", got)
	}
	s, err = ParseScript("set-attr /a title=two words")
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops[0].Name != "title" || s.Ops[0].Value != "two words" {
		t.Errorf("attr = %q=%q", s.Ops[0].Name, s.Ops[0].Value)
	}
}

func TestCanonicalIsJSON(t *testing.T) {
	s, err := ParseScript("delete //mail")
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Canonical(); !strings.HasPrefix(c, `{"ops":[`) {
		t.Errorf("canonical form %q is not the JSON form", c)
	}
}
