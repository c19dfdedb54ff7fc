package dtd_test

import (
	"testing"

	"xmlsec/internal/dtd"
	"xmlsec/internal/xmlparse"
)

// FuzzValidate feeds arbitrary DTD text through Parse, CompileAll and
// Validate of a small document. DTDs are untrusted input — documents
// name their external subset and PUT bodies carry internal ones — so
// no declaration, however malformed, may panic the parser, the
// content-model compiler or the validator.
func FuzzValidate(f *testing.F) {
	const doc = `<r a="x y" id="i1" ref="i1"><s>t</s><s/><u>m<s/>n</u>&#65;</r>`
	seeds := []string{
		`<!ELEMENT r (s+,u?)><!ELEMENT s (#PCDATA)><!ELEMENT u (#PCDATA|s)*>`,
		`<!ELEMENT r ((s|u)*,(s,u)?)+><!ELEMENT s EMPTY><!ELEMENT u ANY>`,
		`<!ELEMENT r ANY><!ATTLIST r a NMTOKENS #REQUIRED id ID #IMPLIED ref IDREF #IMPLIED>`,
		`<!ATTLIST r a (x|y) "x" b CDATA #FIXED "v" c ENTITY #IMPLIED><!ENTITY e SYSTEM "e" NDATA n><!NOTATION n SYSTEM "n">`,
		`<!ENTITY % p "(s)*"><!ELEMENT r %p;><!ELEMENT s (#PCDATA)>`,
		`<![INCLUDE[<!ELEMENT r EMPTY>]]><![IGNORE[<!ELEMENT r ANY>]]>`,
		`<!ELEMENT r (s,(u|s)*,s?)><!ELEMENT s (r?)>`,
		`<!ELEMENT r (`,
		`<!ATTLIST r a ENTITIES #IMPLIED b NOTATION (n) #IMPLIED>`,
		`<!-- c --><?pi x?><!ELEMENT r EMPTY>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, subset string) {
		d, err := dtd.Parse(subset)
		if err != nil {
			return
		}
		d.CompileAll()
		d.Name = "r"
		for _, opts := range []dtd.ValidateOptions{{}, {IgnoreIDs: true}, {ApplyDefaults: true}} {
			res, err := xmlparse.Parse(doc, xmlparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_ = d.Validate(res.Doc, opts)
		}
	})
}
