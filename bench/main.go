// Command bench is the repository's one benchmark: five named
// workloads, end-to-end metrics measured with all tracing off, and a
// traced run that reports every layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gthinkerqc/internal/bitset"
)

// setupReps is how often an untraced run sets the workload up;
// setup_s is the median.
const setupReps = 3

// header says where and how a report was measured.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"` // mining threads
	Kernel     string `json:"bitset_kernel"`
	Seed       uint64 `json:"seed"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one run, as -out stores it and -compare reads it.
type report struct {
	header
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"` // timed operations by class
	result
}

// declared lists the metrics a run of either kind prints.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see README.md)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed section")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		out      = flag.String("out", "", "append the run's report to this file as one JSON line")
		smoke    = flag.Bool("smoke", false, "sub-second graphs, for tests")
		qcworker = flag.String("qcworker", "", "qcworker binary (run.sh builds one)")
		workDir  = flag.String("workdir", ".bench_build", "directory for the run's scratch files")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
		regold   = flag.Bool("golden", false, "print golden.json for the default seed")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this build declares it")
	)
	flag.Parse()
	if *manifest {
		data, _ := json.MarshalIndent(currentManifest(), "", "  ")
		fmt.Printf("%s\n", data)
		return
	}
	if *regold {
		if err := writeGolden(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	wl := findWorkload(*name)
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	if *qcworker == "" && (wl.Serve || *trace == 1) {
		fatal(fmt.Errorf("-qcworker is needed to start worker processes; bench/run.sh builds one and passes it"))
	}

	// Everything the run writes, spill files and manifests included,
	// goes under one directory inside the checkout.
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	os.Setenv("TMPDIR", dir)
	if *qcworker != "" {
		// The worker processes are started from other directories.
		if *qcworker, err = filepath.Abs(*qcworker); err != nil {
			fatal(err)
		}
	}
	e := &env{Seed: *seed, Smoke: *smoke, W: min(runtime.NumCPU(), 4), WorkDir: dir, OutDir: filepath.Join("bench", "out"), QCWorker: *qcworker}
	rep, err := run(wl, e, *trace == 1, time.Duration(*seconds*float64(time.Second)))
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}

	printReport(rep)
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	last, _ := json.Marshal(rep.result)
	fmt.Printf("%s\n", last)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// commit is the commit measured, as run.sh passes it.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// timed runs steps for at least d and returns each step's samples and
// the time all took.
func timed(s *state, d time.Duration) ([][]sample, time.Duration) {
	var steps [][]sample
	t0 := time.Now()
	for time.Since(t0) < d {
		steps = append(steps, s.step())
	}
	return steps, time.Since(t0)
}

// stepMedian is the median over steps of the mean duration in ms of
// the step's samples of class. A mining step is one operation, so this
// is the median operation. A served cycle asks the same ten broad
// queries every time, and they take from 12 to 120 ms: the cycles are
// alike where the jobs are not, and a median over all jobs would sit
// between two queries and jump from one to the other.
func stepMedian(steps [][]sample, class string) float64 {
	var means []float64
	for _, step := range steps {
		sum, n := 0.0, 0
		for _, sm := range step {
			if sm.class == class {
				sum += ms(sm.dur)
				n++
			}
		}
		if n > 0 {
			means = append(means, sum/float64(n))
		}
	}
	return median(means)
}

func run(wl *workload, e *env, trace bool, d time.Duration) (*report, error) {
	rep := &report{
		header: header{
			Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), W: e.W, Kernel: bitset.KernelVariant(), Seed: e.Seed,
		},
		Workload: wl.Name, Trace: trace, Seconds: d.Seconds(),
		Samples: map[string]int{},
		result:  result{Correct: true, Metrics: map[string]metricValue{}},
	}
	wrong := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		rep.Correct = false
	}

	// The same seed must give the same graph, and the default seed the
	// graph the golden file pins.
	gold, err := loadGolden(wl.Name, e)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(generate(wl.spec(e.Smoke), e.Seed))
	if again := fingerprint(generate(wl.spec(e.Smoke), e.Seed)); again != fp {
		wrong("seed %d generated two graphs, %s and %s", e.Seed, fp, again)
	}
	if gold != nil && gold.Fingerprint != fp {
		wrong("graph fingerprint %s, golden %s", fp, gold.Fingerprint)
	}

	reps := setupReps
	if trace {
		e.spans = newSpanLog(wl.Name)
		reps = 1 // setup_s is not a per-layer metric
	}
	var s *state
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = setUp(wl, e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	if ref := s.refs[wl.Queries[0]]; gold != nil && (gold.Nodes != ref.nodes || gold.Results != ref.results) {
		wrong("serial reference: %d nodes, %d results; golden %d, %d", ref.nodes, ref.results, gold.Nodes, gold.Results)
	}

	s.step() // warm-up, discarded
	m := metrics{}
	var steps [][]sample
	if !trace {
		cpu0 := selfCPU() + s.serve.workerCPU()
		var elapsed time.Duration
		steps, elapsed = timed(s, d)
		cpu := selfCPU() + s.serve.workerCPU() - cpu0
		ops := 0
		for _, step := range steps {
			ops += len(step)
		}
		m["setup_s"] = median(setups)
		m["op_wall_ms"] = stepMedian(steps, wl.primaryClass())
		m["op_cpu_ms"] = ms(cpu) / float64(ops)
		m["ops_per_s"] = float64(ops) / elapsed.Seconds()
		m["peak_rss_mb"] = selfPeakRSS() + s.serve.workerPeakRSS()
	} else {
		// A quarter of the time untraced, half of it traced: the ratio
		// of the two medians is what tracing costs this workload.
		spans := e.spans
		e.spans = nil
		plain, _ := timed(s, d/4)
		e.spans, s.trace = spans, true
		steps, _ = timed(s, d/2)
		m["bench.trace_overhead_ratio"] = stepMedian(steps, wl.primaryClass()) / stepMedian(plain, wl.primaryClass())
		steps = append(steps, plain...)
		if err := s.layers(m); err != nil {
			return nil, err
		}
		if err := e.spans.write(filepath.Join(e.OutDir, wl.Name+".trace.json")); err != nil {
			return nil, err
		}
	}

	for _, step := range steps {
		for _, sm := range step {
			rep.Samples[sm.class]++
			rep.Attempted++
			if !sm.ok {
				rep.Failed++
			}
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	for _, def := range declared(trace) {
		v, ok := m[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", def.Name, v)
		}
		rep.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	return rep, nil
}

// layers fills m with every per-layer metric: from the traced
// operations where they passed through the layer, from a probe of the
// layer on this workload's graph where they did not.
func (s *state) layers(m metrics) error {
	if err := probeKernels(s.g, m); err != nil {
		return err
	}
	subs := probeQuasiclique(s, m)
	if len(subs) == 0 {
		return fmt.Errorf("workload %s has no root task to probe the codecs with", s.wl.Name)
	}
	if err := probeStore(s, subs, m); err != nil {
		return err
	}
	if err := probeTransport(s, subs, m); err != nil {
		return err
	}
	if err := probeFloors(s, m); err != nil {
		return err
	}
	if len(s.engine) == 0 {
		if err := engineProbe(s); err != nil {
			return err
		}
	}
	engineMetrics(s.engine, m)
	jobs, err := s.servedJobs()
	if err != nil {
		return err
	}
	serveMetrics(jobs, m)
	return nil
}

func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  trace %v  seconds %g\n", rep.Workload, rep.Seed, rep.Trace, rep.Seconds)
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  W %d  bitset %s\n",
		rep.Commit, rep.GoVersion, rep.NProc, rep.GOMAXPROCS, rep.W, rep.Kernel)
	fmt.Printf("samples %v  attempted %d  failed %d  correct %v\n", rep.Samples, rep.Attempted, rep.Failed, rep.Correct)
	for _, def := range declared(rep.Trace) {
		fmt.Printf("%-40s %16.6g %s\n", def.Name, rep.Metrics[def.Name].Value, def.Unit)
	}
}

func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
