package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmokeAllWorkloads runs every workload at tiny sizes, untraced and
// traced, and checks the result line against BENCHMARK.json's metric lists.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				traceDir := filepath.Join(dir, "traces")
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl.name, "--seed", "5", "--seconds", "0.2", "--trace", trace,
					"--tiny", "--work-dir", filepath.Join(dir, "work"), "--trace-dir", traceDir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("metric %s missing or with unit %q", d.name, m.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Fatalf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				traces, _ := os.ReadDir(traceDir)
				if trace == "0" && len(traces) != 0 {
					t.Fatalf("untraced run wrote %d trace files", len(traces))
				}
				if trace == "1" && len(traces) != 2 {
					t.Fatalf("traced run wrote %d trace files, want JSONL and Chrome", len(traces))
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		End       []struct{ Name, Unit string } `json:"end_to_end"`
		Per       []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.End, endToEnd)
	same("per_layer", spec.Per, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
