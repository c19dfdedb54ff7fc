// Command e2ebench is the repository's end-to-end benchmark. It serves
// generated documents from a server.Site behind a loopback http.Server,
// drives it from two keep-alive connections in a closed loop, checks
// every response against an uncached oracle, and prints one JSON result
// line. With --trace 1 it then replays the same request stream in
// process, timing each layer's public entry point, and prints the
// per-layer metrics instead; the spans are written as Chrome
// trace-event JSON.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 e2ebench/run.py --workload read-warm --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"xmlsec/internal/server"
)

// conns is the number of keep-alive client connections.
const conns = 2

// setups is how many times a run builds the site; setup_s is the median.
const setups = 7

type config struct {
	spec    spec
	seed    int64
	window  time.Duration
	warmup  time.Duration
	trace   bool
	outDir  string
	root    string
	faults  faults
	maxPass time.Duration // traced run: length of the untraced in-process pass
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything a run measured.
type outcome struct {
	Header    map[string]any    `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Samples   map[string]int    `json:"samples"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload: read-warm, read-churn or write-mix")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "length of the measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = print per-layer metrics from a traced replay")
	outDir := flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for data, results and traces")
	root := flag.String("root", ".", "repository root (for the source digest in the run header)")
	flag.Parse()
	sp, ok := specs(false)[*workloadName]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want --workload read-warm|read-churn|write-mix, --seconds ≥1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		spec: sp, seed: *seed, window: time.Duration(*seconds) * time.Second,
		warmup: time.Second, trace: *traceFlag == 1, outDir: *outDir, root: *root,
		maxPass: 1500 * time.Millisecond,
	}
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !out.Correct {
		for _, p := range out.Problems {
			fmt.Fprintf(os.Stderr, "e2ebench: %s\n", p)
		}
		return 1
	}
	return 0
}

// report writes the full outcome under the output directory, prints a
// readable summary, and ends standard output with the result line.
func report(cfg config, out *outcome) error {
	hdr, err := json.Marshal(map[string]any{"header": out.Header})
	if err != nil {
		return err
	}
	fmt.Println(string(hdr))
	metrics := out.EndToEnd
	if cfg.trace {
		metrics = out.PerLayer
	}
	for _, name := range sortedKeys(out.EndToEnd) {
		fmt.Printf("# e2e %-22s %14.4f %s\n", name, out.EndToEnd[name].Value, out.EndToEnd[name].Unit)
	}
	for _, name := range sortedKeys(out.PerLayer) {
		fmt.Printf("# layer %-28s %14.4f %s\n", name, out.PerLayer[name].Value, out.PerLayer[name].Unit)
	}
	full, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.spec.name, cfg.seed, b2i(cfg.trace))
	if err := os.WriteFile(filepath.Join(dir, name), append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs one workload end to end.
func execute(cfg config) (*outcome, error) {
	in, err := generate(cfg.spec, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(cfg.outDir, "data")), cfg.spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var template string
	if cfg.spec.durable {
		template = filepath.Join(work, "template")
		src, err := prepareTemplate(in, template)
		if err != nil {
			return nil, fmt.Errorf("preparing the data directory: %w", err)
		}
		// Everything downstream starts from the state recovery rebuilds.
		in.srcs[0] = src
	}
	o, err := buildOracle(in, in.srcs)
	if err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}

	// Set up several times; serve from the last.
	var sv *served
	var sts []setupTimes
	runDir := ""
	for k := 0; k < setups; k++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, err
			}
			sv = nil // let the collection below reclaim it
		}
		if cfg.spec.durable {
			runDir = filepath.Join(work, fmt.Sprintf("run%d", k))
			if err := copyDir(template, runDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var st setupTimes
		sv, st, err = setUp(in, o, runDir, cfg.faults.wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sts = append(sts, st)
	}
	out := &outcome{
		Header:   runHeader(cfg, in, o),
		EndToEnd: make(map[string]metric),
		Samples:  make(map[string]int),
	}
	var problems []string
	if err := fillCache(sv.site, in, o); err != nil {
		problems = append(problems, err.Error())
	}
	var m *model
	if cfg.spec.durable {
		if m, err = newModel(in, in.srcs[0]); err != nil {
			return nil, err
		}
	}

	// Serve the closed loop; counters are read at the window's edges.
	runtime.GC()
	debug.FreeOSMemory()
	var before, after counters
	var peaks []float64 // per-slice peak RSS, MiB
	var steal []float64 // per-slice share of CPU time the host took
	var stolen float64  // the same over the whole window
	lastSteal, lastTotal := cpuSteal()
	var firstSteal, firstTotal uint64
	res := runLoop(sv, in, o, m, cfg.seed, conns, cfg.warmup, cfg.window, func(i int) {
		s, t := cpuSteal()
		if i > 0 {
			steal = append(steal, float64(s-lastSteal)/float64(max(t-lastTotal, 1)))
		}
		lastSteal, lastTotal = s, t
		switch {
		case i == 0:
			before = readCounters(sv.site)
			firstSteal, firstTotal = s, t
		case i == int(cfg.window/time.Second):
			after = readCounters(sv.site)
			stolen = float64(s-firstSteal) / float64(max(t-firstTotal, 1))
			fallthrough
		default:
			peaks = append(peaks, float64(statusKB("VmHWM"))/1024)
		}
		resetPeakRSS()
	})
	problems = append(problems, res.problems...)
	if cfg.spec.durable {
		// Every acknowledged write must have been journaled exactly once.
		if n := sv.site.WALStats().Appends; n != uint64(res.acked) {
			problems = append(problems, fmt.Sprintf("%d acknowledged writes but %d log records appended", res.acked, n))
		}
	}
	if err := sv.stop(); err != nil {
		problems = append(problems, "stopping the server: "+err.Error())
	}
	if cfg.spec.durable {
		problems = append(problems, checkDurable(in, o, sv.site, m, runDir, cfg.faults)...)
	}

	// On a shared host the hypervisor can take CPU time from this guest
	// (steal). The closed loop completes work in proportion to the CPU
	// time it gets, and p90 is set by requests queueing for the CPU, so
	// both are reported for the CPU time the guest actually had; the
	// raw figures and the stolen share are in the header. The median
	// request rarely meets a stolen interval, so p50 stays raw. Even so,
	// p90 spread too widely under heavy steal to carry a bound, and is a
	// per-layer diagnostic.
	avail := max(1-stolen, 0.5)
	thr := res.throughput()
	p90 := res.sliced(kRead, func(xs []float64) float64 { return percentile(xs, 90) })
	e := out.EndToEnd
	e["throughput_rps"] = metric{thr / avail, "1/s"}
	e["read_p50_ms"] = metric{res.sliced(kRead, func(xs []float64) float64 { return percentile(xs, 50) }), "ms"}
	// Set-up is CPU-bound too: each one is counted for the CPU time the
	// guest had, like throughput.
	e["setup_s"] = metric{median(mapSetups(sts, func(s setupTimes) float64 {
		return s.total.Seconds() * max(1-s.stolen, 0.5)
	})), "s"}
	e["alloc_kb_per_req"] = metric{float64(after.alloc-before.alloc) / 1024 / float64(max(res.completed, 1)), "KiB"}
	for k := opKind(0); k < nKinds; k++ {
		out.Samples[kindNames[k]] = len(res.all(k))
	}
	out.Header["completed_per_second"] = res.done
	out.Header["peak_rss_mb_per_second"] = peaks
	out.Header["steal_per_second"] = steal
	out.Header["steal_share"] = stolen
	out.Header["throughput_rps_raw"] = thr
	out.Header["read_p90_ms_raw"] = p90
	out.Header["setup_seconds"] = mapSetups(sts, func(s setupTimes) float64 { return s.total.Seconds() })
	out.Header["setup_steal"] = mapSetups(sts, func(s setupTimes) float64 { return s.stolen })
	out.Attempted, out.Failed = res.attempted, res.failed

	if cfg.trace {
		pl, tproblems, err := tracedRun(cfg, in, o, template, work, out.Header, res, before, after, sts, median(peaks), p90*avail)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		problems = append(problems, tproblems...)
		out.PerLayer = pl
	}
	out.Problems = problems
	out.Correct = len(problems) == 0 && res.failed == 0
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Correct = false
		out.Problems = append(out.Problems, "no request completed in the measurement window")
	}
	return out, nil
}

var kindNames = [nKinds]string{"read", "query", "update", "put"}

// fillCache requests every (class, visible document) pair of the
// traffic once, in process, so the run starts with the cache holding
// what it can (on read-warm, everything); each served view is also
// checked against the oracle.
func fillCache(s *server.Site, in *inputs, o *oracle) error {
	for _, c := range o.streamClasses {
		r := o.reps[c]
		for _, d := range o.visible[c] {
			res, err := s.Process(in.readers[r].rq, in.uris[d])
			if err != nil {
				return fmt.Errorf("filling the view cache: %w", err)
			}
			if res.XML != string(o.views[c][d]) {
				return fmt.Errorf("filling the view cache: %s's view of %s differs from the oracle", in.readers[r].rq.User, in.uris[d])
			}
		}
	}
	return nil
}

// counters are the process and server counters read at the edges of
// the measurement window.
type counters struct {
	alloc, gcs             uint64
	cacheHits, cacheMisses uint64
	coalesced              uint64
	walBytes, walSnapshots uint64
}

func readCounters(s *server.Site) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
	c.cacheHits, c.cacheMisses = s.CacheStats()
	c.coalesced = s.CacheCoalesced()
	w := s.WALStats()
	c.walBytes, c.walSnapshots = w.AppendedBytes, w.Snapshots
	return c
}

func mapSetups(sts []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(sts))
	for i, s := range sts {
		out[i] = f(s)
	}
	return out
}

// percentile returns the p-th percentile (nearest rank) of xs, or 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
