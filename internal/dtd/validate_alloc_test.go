package dtd_test

import (
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// TestValidateAllocsIndependentOfSize: validating a valid document
// allocates a fixed amount of working state — matcher sets, the child
// sequence, the validator itself — and nothing per element or per
// attribute. The documents exercise element content, mixed content,
// enumerated and tokenized attribute types and #FIXED defaults; they
// carry no ID attributes, whose bookkeeping is a map that grows with
// the number of IDs.
func TestValidateAllocsIndependentOfSize(t *testing.T) {
	allocs := func(depth int) float64 {
		cfg := workload.DocConfig{Depth: depth, Fanout: 3, Attrs: 2, Seed: 4}
		subset := workload.GenDTD(cfg).String()
		subset = strings.ReplaceAll(subset, "a0 CDATA #IMPLIED", "a0 (0|1|2|3) #IMPLIED")
		subset = strings.ReplaceAll(subset, "a1 CDATA #IMPLIED", "a1 NMTOKENS #IMPLIED v CDATA #FIXED \"1\"")
		doc := workload.GenDocument(cfg)
		doc.DocType = &dom.DocType{Name: "root", InternalSubset: subset}
		res, err := xmlparse.Parse(doc.String(), xmlparse.Options{ApplyDefaults: true})
		if err != nil {
			t.Fatal(err)
		}
		res.DTD.CompileAll()
		if errs := res.DTD.Validate(res.Doc, dtd.ValidateOptions{}); errs != nil {
			t.Fatalf("depth %d: %v", depth, errs)
		}
		return testing.AllocsPerRun(20, func() {
			res.DTD.Validate(res.Doc, dtd.ValidateOptions{})
		})
	}
	small, large := allocs(2), allocs(5)
	if large > small {
		t.Errorf("Validate allocates %v times on 13 elements but %v times on 364", small, large)
	}
}
