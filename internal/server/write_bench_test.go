package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// benchWriteSite is a site holding one generated document of the shape
// the write-mix benchmark stores (depth 5, fanout 5, two attributes per
// element: 14,842 nodes) and a writer with read and write authority
// over all of it. Durability is off, so the benchmarks time the write
// path's CPU work, not fsync.
func benchWriteSite(b *testing.B) (*Site, subjects.Requester) {
	cfg := workload.DocConfig{Depth: 5, Fanout: 5, Attrs: 2, Seed: 1}
	site := NewSite()
	dir := subjects.NewDirectory()
	if err := dir.AddUser("w"); err != nil {
		b.Fatal(err)
	}
	site.Directory = dir
	site.Engine.Hierarchy.Dir = dir
	if err := site.Docs.AddDTD("bench.dtd", workload.GenDTD(cfg).String()); err != nil {
		b.Fatal(err)
	}
	doc := workload.GenDocument(cfg)
	doc.DocType = &dom.DocType{Name: "root", SystemID: "bench.dtd"}
	if err := site.Docs.AddDocument("doc.xml", doc.String()); err != nil {
		b.Fatal(err)
	}
	if n := site.Docs.Doc("doc.xml").Doc.NodeCount(); n != 14842 {
		b.Fatalf("document has %d nodes, want write-mix's 14842", n)
	}
	if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(`<<w,*,*>,doc.xml:/root,read,+,R>`)); err != nil {
		b.Fatal(err)
	}
	if err := site.GrantWrite(authz.InstanceLevel, `<<w,*,*>,doc.xml:/root,write,+,R>`); err != nil {
		b.Fatal(err)
	}
	return site, subjects.Requester{User: "w", IP: "192.0.2.10", Host: "writer.example.net"}
}

// BenchmarkApplyUpdate measures one single-operation script update
// (resolve, apply, commit) on the write-mix document; consecutive
// iterations alternate the value, so every one commits a change.
func BenchmarkApplyUpdate(b *testing.B) {
	site, w := benchWriteSite(b)
	scripts := [2]string{}
	for i := range scripts {
		scripts[i] = fmt.Sprintf("set-attr /root/e1x0[1]/e2x1[1]/e3x2[1] a0=v%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.ApplyUpdate(context.Background(), w, "doc.xml", scripts[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergePut measures one write-through-views PUT (parse of the
// body, merge against the writer's view, commit) on the write-mix
// document; consecutive bodies alternate one attribute value.
func BenchmarkMergePut(b *testing.B) {
	site, w := benchWriteSite(b)
	src := site.Docs.Doc("doc.xml").Source
	i := strings.Index(src, `a0="`) + len(`a0="`)
	bodies := [2]string{src[:i] + "x" + src[i:], src[:i] + "y" + src[i:]}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.UpdateContext(context.Background(), w, "doc.xml", bodies[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
