package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// maxUnattributedPct bounds the share of a traced operation's time that no
// layer span covers: the benchmark's own bookkeeping between calls.
const maxUnattributedPct = 25

// runShort runs one short-mode measurement in process and returns the exit
// code and the parsed result line.
func runShort(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--short", "--seed", "3", "--seconds", "0.5", "--trace-dir", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: no result line (exit %d): %v\nstdout: %s\nstderr: %s", args, code, err, stdout.String(), stderr.String())
	}
	return code, res
}

// TestEveryMetricEmitted runs every workload in short mode, untraced and
// traced, and checks that each run emits every metric BENCHMARK.json names
// for its mode, with its unit, that every end-to-end metric is positive, and
// that every run passes its output checks.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{spec.EndToEnd, spec.PerLayer} {
			code, res := runShort(t, "--workload", w.Name, "--trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: exit %d, correct %v, %d of %d failed", w.Name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s (%s) emitted %v with unit %q", w.Name, trace, m.Name, m.Unit, ok, got.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if u, ok := res.Metrics["trace.unattributed_pct"]; trace == 1 && (!ok || u.Value > maxUnattributedPct) {
				t.Errorf("%s: %.1f%% of the traced time is in no layer's span (bound %v%%)", w.Name, u.Value, maxUnattributedPct)
			}
		}
	}
}

// TestCorruptedInputFails checks that the output checks catch a flipped
// HVF byte in send and one over-rate burst in forward.
func TestCorruptedInputFails(t *testing.T) {
	for _, w := range []string{"send", "forward"} {
		code, res := runShort(t, "--workload", w, "--fault")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted input: exit %d, correct %v, %d failed", w, code, res.Correct, res.Failed)
		}
	}
}

// TestBadArguments checks that a usage error prints no result.
func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
