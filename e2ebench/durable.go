package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
)

// checkDurable is write-mix's end-of-run gate. The live document must
// be exactly what the acknowledged writes make of the starting one;
// restarting from the data directory must recover those bytes; and on
// the recovered site every class's view — readers' and writers' — must
// equal the uncached oracle's view of the final document.
func checkDurable(in *inputs, o *oracle, live *server.Site, m *model, dataDir string, f faults) []string {
	var problems []string
	uri := in.uris[0]
	final := live.Docs.Doc(uri).Source
	if final != m.doc.String() {
		problems = append(problems, "the live document differs from the one the acknowledged writes produce")
	}
	if f.truncateWAL {
		if err := truncateNewestSegment(dataDir, 16); err != nil {
			return append(problems, err.Error())
		}
	}
	rec, err := buildSite(in, dataDir, nil)
	if err != nil {
		return append(problems, "recovering: "+err.Error())
	}
	defer rec.CloseDurability()
	if got := rec.Docs.Doc(uri).Source; got != final {
		problems = append(problems, fmt.Sprintf("recovered document differs from the live one (%d vs %d bytes)", len(got), len(final)))
	}
	srcs := append([]string(nil), in.srcs...)
	srcs[0] = final
	ref, err := newOracleSite(in, srcs)
	if err != nil {
		return append(problems, "final oracle: "+err.Error())
	}
	var reps []subjects.Requester
	for _, r := range o.reps {
		reps = append(reps, in.readers[r].rq)
	}
	for _, w := range in.writers {
		reps = append(reps, w.rq)
	}
	for c, rq := range reps {
		want, werr := ref.Process(rq, uri)
		got, gerr := rec.Process(rq, uri)
		switch {
		case errors.Is(werr, server.ErrNotFound) && errors.Is(gerr, server.ErrNotFound):
		case werr != nil || gerr != nil:
			problems = append(problems, fmt.Sprintf("final view for %s: oracle error %v, recovered error %v", rq.User, werr, gerr))
		case want.XML != got.XML:
			problems = append(problems, fmt.Sprintf("recovered view for %s differs from the oracle", rq.User))
		case c < len(o.reps) && o.views[c] != nil && want.XML != string(o.views[c][0]):
			// Readers never see the write regions, so their views must
			// not have moved; if they did, the checks during the run
			// compared against the wrong bytes.
			problems = append(problems, fmt.Sprintf("reader %s's view changed during the run", rq.User))
		}
	}
	return problems
}

// truncateNewestSegment drops the last n bytes of the newest log
// segment, losing the tail of the last acknowledged write.
func truncateNewestSegment(dir string, n int64) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no log segment in %s", dir)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		return err
	}
	if fi.Size() <= n {
		return fmt.Errorf("newest log segment %s holds only %d bytes", newest, fi.Size())
	}
	return os.Truncate(newest, fi.Size()-n)
}
