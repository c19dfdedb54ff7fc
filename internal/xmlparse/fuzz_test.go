package xmlparse

import (
	"strings"
	"testing"
)

// fuzzParseSeeds is FuzzParse's built-in seed corpus.
var fuzzParseSeeds = []string{
	`<a/>`,
	`<a x="1"><b>t</b><!--c--><?p d?><![CDATA[e]]></a>`,
	`<?xml version="1.0"?><!DOCTYPE a [<!ENTITY e "v"><!ELEMENT a ANY>]><a>&e;&#65;</a>`,
	`<a><b></a></b>`,
	`<a x="1" x="2"/>`,
	`<a>&bogus;</a>`,
	`<a><![CDATA[unterminated`,
	`<a b="<"/>`,
	strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50),
	`<!DOCTYPE a SYSTEM "x.dtd"><a/>`,
	"<a>\xff\xfe</a>",
	`<a>]]></a>`,
}

// FuzzParse exercises the parser on arbitrary inputs: it must never
// panic, and anything it accepts must serialize and re-parse to the
// same tree (the parser and serializer agree on what XML is).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		res, err := Parse(input, Options{KeepWhitespace: true, KeepComments: true})
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := res.Doc.String()
		res2, err := Parse(out, Options{KeepWhitespace: true, KeepComments: true})
		if err != nil {
			t.Fatalf("serialized output does not re-parse: %v\ninput: %q\noutput: %q", err, input, out)
		}
		if out2 := res2.Doc.String(); out != out2 {
			t.Fatalf("serialization not stable:\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}
