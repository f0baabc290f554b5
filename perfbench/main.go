// Command perfbench is the repository benchmark: four workloads driven
// through the public surfaces of the data path (core.Session.Send → gateway →
// k × router) and the control path (cserv hop by hop), each checking its
// outputs. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload send --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times a
// second, traced pass and prints the per-layer metrics derived from spans the
// benchmark records around calls into each module. Every workload prints the
// same metrics (see endToEnd and perLayer). The last line of standard output
// is the result object; the line before it is the run record (host, Go
// version, seed, repetitions, per-metric spread and the workload-specific
// figures).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// bench is one set-up workload instance.
type bench interface {
	// measure runs the timed loop for about d of busy time and returns one
	// repetition's end-to-end metrics (setup_s, peak_rss_mb and ok_ratio
	// are added by the caller) and any workload-specific figures.
	measure(d time.Duration) (map[string]float64, error)
	// traced runs the loop for about d with spans recorded into tr and
	// returns the per-layer metrics and any workload-specific figures. It follows a measure call on the same
	// instance, whose untraced figures it uses for the tracing overhead and
	// for self times that only the untraced run can give.
	traced(d time.Duration, tr *tracer) (map[string]float64, error)
	// counts returns the operations attempted and failed so far.
	counts() (attempted, failed int64)
	// check verifies the program's outputs after the run.
	check() error
	close()
}

// workload describes how to build and repeat one workload.
type workload struct {
	name string
	// setupReps is how often the setup is built; setup_s is the median.
	setupReps int
	// reps splits the timed window into repetitions; every end-to-end
	// metric is the median over them.
	reps int
	// build sets the workload up. tr is non-nil only for traced runs and
	// points at the tracer the control-path transports record into.
	build func(o opts, tr **tracer) (bench, error)
}

// opts are the command-line inputs a workload sees.
type opts struct {
	seed  int64
	short bool
	// fault injects the workload's deliberate corruption, which the output
	// checks must catch.
	fault bool
}

// Short repetitions whose median is reported keep the figures steady on a
// shared host, where a neighbour's burst of load slows a few seconds of a
// run. forward's burst p99 (reported as detail) and renewal-storm's wave
// p90 need longer repetitions to rest on enough samples (renewal-storm runs
// one wave per virtual second).
var workloads = []workload{
	{name: "send", setupReps: 3, reps: 10, build: newSend},
	{name: "forward", setupReps: 3, reps: 5, build: newForward},
	{name: "eer-churn", setupReps: 3, reps: 10, build: newChurn},
	{name: "renewal-storm", setupReps: 3, reps: 2, build: newStorm},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 when every
// output check passed, 1 when a check failed (the result is still printed),
// 2 on a usage or setup error (nothing is printed on standard output).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: send, forward, eer-churn or renewal-storm")
	seed := fs.Int64("seed", 1, "seed for the topology and every random choice")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	short := fs.Bool("short", false, "shrink the reservation populations (tests)")
	fault := fs.Bool("fault", false, "inject one corrupted input the checks must catch (tests)")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	o := opts{seed: *seed, short: *short, fault: *fault}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var rec record
	var err error
	if *trace == 1 {
		res, rec, err = runTraced(w, o, d, *traceDir)
	} else {
		res, rec, err = runPlain(w, o, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	rec.fill(w, o, *seconds, *trace)
	recLine, _ := json.Marshal(map[string]record{"record": rec})
	resLine, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", recLine, resLine)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupMedian builds the workload setupReps times, keeping the last
// instance, and returns it with the median setup time in seconds.
func setupMedian(w *workload, o opts, tr **tracer) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < w.setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		nb, err := w.build(o, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(w *workload, o opts, d time.Duration) (*result, record, error) {
	b, setupS, err := setupMedian(w, o, nil)
	if err != nil {
		return nil, record{}, err
	}
	defer b.close()
	samples := map[string][]float64{}
	for r := 0; r < w.reps; r++ {
		// Every repetition starts from a collected heap, so where the
		// collector's cycles fall does not differ between runs.
		runtime.GC()
		m, err := b.measure(d / time.Duration(w.reps))
		if err != nil {
			return nil, record{}, err
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	checkErr := b.check()
	attempted, failed := b.counts()
	rec := record{Spread: map[string]float64{}}
	medians := map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": peakRSSMB(),
		"ok_ratio":    okRatio(attempted, failed),
	}
	for k, xs := range samples {
		medians[k] = median(xs)
		rec.Spread[k] = spread(xs)
	}
	res, err := split(medians, endToEnd, attempted, failed, &rec)
	if err != nil {
		return nil, record{}, err
	}
	res.Correct = finish(checkErr, attempted, failed, &rec)
	return res, rec, nil
}

// runTraced measures once untraced and once traced on the same instance
// and reports the per-layer metrics.
func runTraced(w *workload, o opts, d time.Duration, dir string) (*result, record, error) {
	var cur *tracer
	b, err := w.build(o, &cur)
	if err != nil {
		return nil, record{}, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	runtime.GC()
	if _, err := b.measure(d / 2); err != nil {
		return nil, record{}, err
	}
	tr := newTracer()
	runtime.GC()
	cur = tr
	layers, err := b.traced(d/2, tr)
	cur = nil
	if err != nil {
		return nil, record{}, err
	}
	checkErr := b.check()
	attempted, failed := b.counts()
	rec := record{TraceFile: filepath.Join(dir, traceFile(w.name, o.seed))}
	res, err := split(layers, perLayer, attempted, failed, &rec)
	if err != nil {
		return nil, record{}, err
	}
	if err := tr.write(dir, traceFile(w.name, o.seed)); err != nil {
		return nil, record{}, fmt.Errorf("writing spans: %w", err)
	}
	res.Correct = finish(checkErr, attempted, failed, &rec)
	return res, rec, nil
}

// split puts the metrics named in want into the result, with their units,
// and every other figure into the record's detail. A metric of want that
// the workload did not measure is an error.
func split(m map[string]float64, want map[string]string, attempted, failed int64, rec *record) (*result, error) {
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, unit := range want {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name, v := range m {
		if _, ok := want[name]; !ok {
			if rec.Detail == nil {
				rec.Detail = map[string]float64{}
			}
			rec.Detail[name] = v
		}
	}
	return res, nil
}

// finish folds the output check and the failure count into the verdict.
func finish(checkErr error, attempted, failed int64, rec *record) bool {
	var errs []error
	if checkErr != nil {
		errs = append(errs, checkErr)
	}
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d operations failed", failed, attempted))
	}
	if attempted == 0 {
		errs = append(errs, errors.New("no operation attempted"))
	}
	if err := errors.Join(errs...); err != nil {
		rec.CheckError = err.Error()
		return false
	}
	return true
}

func okRatio(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}
