package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testWorker is a qcworker binary built once for the package's tests.
var testWorker string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testWorker = filepath.Join(dir, "qcworker")
	if out, err := exec.Command("go", "build", "-o", testWorker, "gthinkerqc/cmd/qcworker").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build qcworker: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeEveryWorkload runs each workload untraced and traced on its
// sub-second graph: every operation must be correct and every declared
// metric measured.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				dir := t.TempDir()
				t.Setenv("TMPDIR", dir)
				e := &env{Seed: 7, Smoke: true, W: min(runtime.NumCPU(), 4), WorkDir: dir, OutDir: dir, QCWorker: testWorker}
				rep, err := run(wl, e, trace, 200*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
				}
				if !trace {
					for _, def := range endToEnd {
						if v := rep.Metrics[def.Name].Value; v <= 0 {
							t.Errorf("%s = %v, want above 0", def.Name, v)
						}
					}
					return
				}
				sum := 0.0
				for name, v := range rep.Metrics {
					if strings.HasSuffix(name, "_share") && strings.HasPrefix(name, "gthinker.") {
						sum += v.Value
					}
				}
				if math.Abs(sum-1) > 0.02 {
					t.Errorf("shares of threads x wall sum to %v", sum)
				}
				data, err := os.ReadFile(filepath.Join(dir, wl.Name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					Workload string
					Spans    []span
				}
				if err := json.Unmarshal(data, &tr); err != nil {
					t.Fatal(err)
				}
				if tr.Workload != wl.Name || len(tr.Spans) == 0 {
					t.Fatalf("trace of %q holds %d spans", tr.Workload, len(tr.Spans))
				}
				for _, sp := range tr.Spans {
					if sp.Parent < 0 || sp.Parent >= sp.ID || sp.Layer == "" {
						t.Fatalf("span %+v has no layer or a parent that does not precede it", sp)
					}
				}
			})
		}
	}
}

// TestGeneratorIsDeterministic checks that a seed names one graph, the
// default seed the graph golden.json pins, and another seed another.
func TestGeneratorIsDeterministic(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		gold, err := loadGolden(wl.Name, &env{Seed: goldenSeed})
		if err != nil {
			t.Fatal(err)
		}
		a, b := fingerprint(generate(wl.Spec, goldenSeed)), fingerprint(generate(wl.Spec, goldenSeed))
		if a != b || a != gold.Fingerprint {
			t.Errorf("%s: seed %d generated %s then %s, golden %s", wl.Name, goldenSeed, a, b, gold.Fingerprint)
		}
		if c := fingerprint(generate(wl.Spec, goldenSeed+1)); c == a {
			t.Errorf("%s: seeds %d and %d generated the same graph", wl.Name, goldenSeed, goldenSeed+1)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare three workloads: one the same on
// both sides, one slower than its bound allows, one too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, scale map[string]float64, noisy string) string {
		var buf bytes.Buffer
		for _, wl := range workloads[:3] {
			for i := 0; i < 10; i++ {
				rep := report{Workload: wl.Name, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
				rep.Seed = uint64(i)
				for _, def := range endToEnd {
					v := 100 * (1 + 0.001*float64(i))
					if wl.Name == noisy {
						v = 100 * (1 + 0.1*float64(i))
					}
					if f, ok := scale[wl.Name]; ok && def.Name == "op_wall_ms" {
						v *= f
					}
					rep.Metrics[def.Name] = metricValue{v, def.Unit}
				}
				line, _ := json.Marshal(rep)
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", nil, workloads[2].Name)
	b := write("b.json", map[string]float64{workloads[1].Name: 1.4}, workloads[2].Name)
	var out bytes.Buffer
	bad, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Error("a 40% slower op_wall_ms was not reported as a regression")
	}
	for i, want := range []string{unchanged, regressed, unresolved} {
		row := fmt.Sprintf("%-20s %s", workloads[i].Name, want)
		if !strings.Contains(out.String(), row) {
			t.Errorf("missing row %q in:\n%s", row, out.String())
		}
	}
}
