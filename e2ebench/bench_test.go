package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// runToy runs one workload at toy size through the whole pipeline:
// inputs, oracle, set-ups, the closed loop over HTTP, the end-of-run
// checks and, with trace, the traced replay.
func runToy(t *testing.T, name string, f faults, trace bool, tweak func(*spec)) *outcome {
	t.Helper()
	sp := specs(true)[name]
	if tweak != nil {
		tweak(&sp)
	}
	out, err := execute(config{
		spec: sp, seed: 7, window: time.Second, warmup: 200 * time.Millisecond,
		trace: trace, outDir: t.TempDir(), root: "..", faults: f, maxPass: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must match.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics fails unless got reports exactly the declared metrics,
// each in its declared unit.
func sameMetrics(t *testing.T, what string, decl []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	var want, have []string
	for _, m := range decl {
		want = append(want, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for k := range got {
		have = append(have, k)
	}
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(want, " ") != strings.Join(have, " ") {
		t.Errorf("%s metrics:\n got  %v\n want %v", what, have, want)
	}
}

// TestToyWorkloads runs every workload at toy size and expects a
// correct outcome carrying exactly the metrics BENCHMARK.json declares.
func TestToyWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	all := specs(true)
	if len(bf.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(all))
	}
	for _, w := range bf.Workloads {
		sp, ok := all[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
		if sp.why != w.Why {
			t.Errorf("%s: why differs from BENCHMARK.json", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			out := runToy(t, w.Name, faults{}, true, nil)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", out.Correct, out.Attempted, out.Failed, out.Problems)
			}
			sameMetrics(t, "end_to_end", bf.EndToEnd, out.EndToEnd)
			sameMetrics(t, "per_layer", bf.PerLayer, out.PerLayer)
			for name, m := range out.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// The gate must not pass vacuously: each injected fault has to fail
// the run.

func TestGateCatchesCorruptedViewByte(t *testing.T) {
	out := runToy(t, wlReadWarm, faults{corruptRead: 50}, false, nil)
	if out.Correct || !hasProblem(out, "differs from the oracle") {
		t.Fatalf("a flipped byte in one view passed the gate: %v", out.Problems)
	}
}

func TestGateCatchesDroppedAcknowledgedWrite(t *testing.T) {
	out := runToy(t, wlWriteMix, faults{dropWrite: 3}, false, nil)
	if out.Correct || !hasProblem(out, "acknowledged writes") {
		t.Fatalf("a write acknowledged but never applied passed the gate: %v", out.Problems)
	}
}

func TestGateCatchesLostLogTail(t *testing.T) {
	// No compaction, so the cut lands in records recovery must replay.
	out := runToy(t, wlWriteMix, faults{truncateWAL: true}, false, func(s *spec) { s.snapshotBytes = 1 << 30 })
	if out.Correct || !hasProblem(out, "recovered document differs") {
		t.Fatalf("a write lost from the log passed the gate: %v", out.Problems)
	}
}

func hasProblem(out *outcome, substr string) bool {
	for _, p := range out.Problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}
