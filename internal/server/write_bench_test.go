package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// benchWriteSite is a site holding one generated document of the shape
// the write-mix benchmark stores (depth 5, fanout 5, two attributes per
// element: 14,842 nodes) and a writer with read and write authority
// over all of it. Durability is off, so the benchmarks time the write
// path's CPU work, not fsync.
func benchWriteSite(b *testing.B) (*Site, subjects.Requester) {
	site, w := genWriteSite(b, workload.DocConfig{Depth: 5, Fanout: 5, Attrs: 2, Seed: 1})
	if n := site.Docs.Doc("doc.xml").Doc.NodeCount(); n != 14842 {
		b.Fatalf("document has %d nodes, want write-mix's 14842", n)
	}
	return site, w
}

// genWriteSite is a non-durable site holding doc.xml, generated from
// cfg and bound to bench.dtd, and a writer "w" with read and write
// authority over all of it.
func genWriteSite(tb testing.TB, cfg workload.DocConfig) (*Site, subjects.Requester) {
	site := NewSite()
	dir := subjects.NewDirectory()
	if err := dir.AddUser("w"); err != nil {
		tb.Fatal(err)
	}
	site.Directory = dir
	site.Engine.Hierarchy.Dir = dir
	if err := site.Docs.AddDTD("bench.dtd", workload.GenDTD(cfg).String()); err != nil {
		tb.Fatal(err)
	}
	doc := workload.GenDocument(cfg)
	doc.DocType = &dom.DocType{Name: "root", SystemID: "bench.dtd"}
	if err := site.Docs.AddDocument("doc.xml", doc.String()); err != nil {
		tb.Fatal(err)
	}
	if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(`<<w,*,*>,doc.xml:/root,read,+,R>`)); err != nil {
		tb.Fatal(err)
	}
	if err := site.GrantWrite(authz.InstanceLevel, `<<w,*,*>,doc.xml:/root,write,+,R>`); err != nil {
		tb.Fatal(err)
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

// BenchmarkApplyUpdateSize measures BenchmarkApplyUpdate's one-operation
// script on generated documents of about 10³, 10⁴ and 10⁵ nodes. Next
// to ns/op it reports, per operation, the time of the commit's two
// stages — doc.prepare (normalize, defaults, validation, arena) and
// doc.serialize (Source and its hash) — from the engine's stage
// histograms, which is where a commit local to the edit's footprint
// shows: the rest of the write (the copy, labeling, resolve) still
// grows with the document.
func BenchmarkApplyUpdateSize(b *testing.B) {
	for _, cfg := range []workload.DocConfig{
		{Depth: 4, Fanout: 4, Attrs: 3, Seed: 1},
		{Depth: 4, Fanout: 7, Attrs: 3, Seed: 1},
		{Depth: 5, Fanout: 7, Attrs: 3, Seed: 1},
	} {
		site, w := genWriteSite(b, cfg)
		n := site.Docs.Doc("doc.xml").Doc.NodeCount()
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			scripts := [2]string{}
			for i := range scripts {
				scripts[i] = fmt.Sprintf("set-attr /root/e1x0[1]/e2x1[1]/e3x2[1] a0=v%d", i)
			}
			// The first commit after AddDocument is whole-document;
			// the timed ones build on edited generations.
			if err := site.ApplyUpdate(context.Background(), w, "doc.xml", "set-attr /root/e1x0[1] a1=warm"); err != nil {
				b.Fatal(err)
			}
			stageSum := func(st obs.Stage) float64 {
				return site.Metrics().Snapshot().Metric("xmlsec_stage_duration_seconds").Find("stage", st.String()).Histogram.Sum
			}
			prep0, ser0 := stageSum(obs.StageDocPrepare), stageSum(obs.StageDocSerialize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := site.ApplyUpdate(context.Background(), w, "doc.xml", scripts[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((stageSum(obs.StageDocPrepare)-prep0)*1e9/float64(b.N), "prepare-ns/op")
			b.ReportMetric((stageSum(obs.StageDocSerialize)-ser0)*1e9/float64(b.N), "serialize-ns/op")
		})
	}
}
