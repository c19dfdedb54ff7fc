package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"xmlsec/internal/server"
	"xmlsec/internal/wal"
)

// setupTimes itemizes one set-up.
type setupTimes struct {
	total, xacl, warm, recovery time.Duration
	replayed                    uint64
	// stolen is the share of CPU time the hypervisor took during the
	// set-up (see cpuSteal).
	stolen float64
}

// buildSite configures a Site the way xmlsecd does for these inputs:
// static resolver filled from the requesters, directory and credentials,
// DTD, documents and XACLs loaded, class-keyed view cache on, tracing
// off, slow log at its default, TrustForwardedFor on — then, for durable
// workloads, recovery from dataDir — and finally warms the node-set
// index. st, when non-nil, receives the per-layer set-up times.
func buildSite(in *inputs, dataDir string, st *setupTimes) (*server.Site, error) {
	s := server.NewSite()
	s.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	res := s.Resolver.(*server.StaticResolver)
	for ip, host := range in.resolver {
		res.Add(ip, host)
	}
	if err := addDirectory(s, in); err != nil {
		return nil, err
	}
	for _, u := range in.users {
		if err := s.Users.Set(u.name, u.password); err != nil {
			return nil, err
		}
	}
	if err := s.Docs.AddDTD(in.dtdURI, in.dtdSrc); err != nil {
		return nil, err
	}
	for i, uri := range in.uris {
		if err := s.Docs.AddDocument(uri, in.srcs[i]); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for _, x := range in.xacls {
		if _, err := s.LoadXACL(x); err != nil {
			return nil, err
		}
	}
	xacl := time.Since(start)
	s.EnableViewCache(in.spec.cache)
	s.EnableSlowLog(250*time.Millisecond, 64)
	s.TrustForwardedFor = true
	var recovery time.Duration
	if in.spec.durable {
		start = time.Now()
		if err := s.EnableDurability(dataDir, server.DurabilityOptions{
			Sync:          wal.SyncNever,
			SnapshotBytes: in.spec.snapshotBytes,
		}); err != nil {
			return nil, err
		}
		recovery = time.Since(start)
	}
	start = time.Now()
	for _, uri := range in.uris {
		sd := s.Docs.Doc(uri)
		s.Engine.WarmAuthIndex(sd.Doc, uri, sd.DTDURI, 4)
	}
	if st != nil {
		st.xacl, st.warm, st.recovery = xacl, time.Since(start), recovery
		st.replayed = s.WALStats().ReplayRecords
	}
	return s, nil
}

// served is a Site behind a loopback http.Server.
type served struct {
	site *server.Site
	srv  *http.Server
	base string
	done chan error
}

func serve(s *server.Site, h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{
		site: s,
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { sv.done <- sv.srv.Serve(ln) }()
	return sv, nil
}

// stop drains the server, waits out any background compaction, and
// closes the log.
func (sv *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if serr := <-sv.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := awaitCompaction(sv.site); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := sv.site.CloseDurability(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// awaitCompaction polls the site's /debug/walz, in process, until no
// background compaction is running. Callers have stopped writing, so
// none starts afterwards.
func awaitCompaction(s *server.Site) error {
	if !s.Durable() {
		return nil
	}
	h := s.Handler()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/walz", nil))
		var st struct {
			Compacting bool `json:"compacting"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return fmt.Errorf("reading /debug/walz: %w", err)
		}
		if !st.Compacting {
			return nil
		}
	}
	return fmt.Errorf("compaction still running after 60s")
}

// setUp is one timed set-up: from nothing to the first request served
// over HTTP.
func setUp(in *inputs, o *oracle, dataDir string, wrap func(http.Handler) http.Handler) (*served, setupTimes, error) {
	var st setupTimes
	steal0, total0 := cpuSteal()
	start := time.Now()
	s, err := buildSite(in, dataDir, &st)
	if err != nil {
		return nil, st, err
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	sv, err := serve(s, h)
	if err != nil {
		return nil, st, err
	}
	r := o.eligible[0]
	c := newConn()
	status, _, err := c.get(sv.base+"/docs/"+in.uris[o.visible[o.classOf[r]][0]], in.readers[r])
	c.close()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first request answered %d", status)
	}
	if err != nil {
		_ = sv.stop()
		return nil, st, fmt.Errorf("first request after set-up: %w", err)
	}
	st.total = time.Since(start)
	steal1, total1 := cpuSteal()
	st.stolen = float64(steal1-steal0) / float64(max(total1-total0, 1))
	return sv, st, nil
}

// prepareTemplate writes the data directory every durable set-up
// recovers from: the initial snapshot plus a fixed tail of update
// delta records. It returns the document source the tail leaves.
func prepareTemplate(in *inputs, dir string) (string, error) {
	s, err := buildSite(in, dir, nil)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	for _, t := range in.tailScripts {
		if err := s.ApplyUpdate(ctx, in.writers[t.writer].rq, in.uris[0], t.script); err != nil {
			s.CloseDurability()
			return "", fmt.Errorf("tail update %q: %w", t.script, err)
		}
	}
	src := s.Docs.Doc(in.uris[0]).Source
	return src, s.CloseDurability()
}

// copyDir copies a flat data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
