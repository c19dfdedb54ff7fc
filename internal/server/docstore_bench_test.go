package server

import (
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/workload"
)

// BenchmarkPrepareDocument measures the write path's fixed cost of
// turning document text into a stored document — parse, arena build
// and strict DTD validation — on a generated 14,842-node document of
// the shape the write-mix benchmark stores (depth 5, fanout 5, two
// attributes per element).
func BenchmarkPrepareDocument(b *testing.B) {
	cfg := workload.DocConfig{Depth: 5, Fanout: 5, Attrs: 2, Seed: 1}
	s := NewDocStore()
	if err := s.AddDTD("bench.dtd", workload.GenDTD(cfg).String()); err != nil {
		b.Fatal(err)
	}
	doc := workload.GenDocument(cfg)
	doc.DocType = &dom.DocType{Name: "root", SystemID: "bench.dtd"}
	src := doc.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.prepareDocument("doc.xml", src); err != nil {
			b.Fatal(err)
		}
	}
}
