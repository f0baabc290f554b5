package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// endToEnd and perLayer map the metrics every run prints to their units:
// every untraced run prints each end-to-end metric and every traced run
// each per-layer metric, whatever its workload. Each workload has its own
// timed call and its own unit of work:
//
//	workload       timed call (lat_*, trace.lat_us)      work (ops_per_s, *_per_op)
//	send           Session.Send                          packets delivered
//	forward        one 32-packet burst, gateway+routers  packets delivered
//	eer-churn      Host.RequestEER                       EER setups and renewals
//	renewal-storm  one KeeperFleet.Tick wave             EER renewals
//
// ops_per_s is the median rate over short windows (see windowRate). The
// tail, lat_tail_us, is p90: renewal-storm runs a few dozen waves per
// repetition, send's p99 and eer-churn's setup p99 followed the host's other
// load (send's IQR/median reached 0.48 over ten seeds), and forward's p95
// sits on the knee its replay-filter clears make (see
// forwardBench.measure). The per-layer source and hop metrics split the
// timed call: the source is the gateway (send: Worker.Build, forward:
// Sharded.BuildBatch) or the source AS's side of the control request
// (everything the root span spends outside inter-CServ calls); a hop is one
// on-path border router call (Worker.Process, Sharded.ProcessBatch) or one
// inter-CServ call minus the calls it makes onward. Figures that only some
// workloads have go to the run record's detail instead, under names that
// carry their unit.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"ok_ratio":    "ratio",
	"ops_per_s":   "1/s",
	"lat_p50_us":  "us",
	"lat_tail_us": "us",
}

var perLayer = map[string]string{
	"trace.lat_us.mean":       "us",
	"trace.overhead_pct":      "%",
	"trace.unattributed_pct":  "%",
	"source.self_us.mean":     "us",
	"source.self_us.p50":      "us",
	"hop.self_us.mean":        "us",
	"hop.self_us.p50":         "us",
	"hop.msg_bytes":           "B",
	"core.tick_ms.mean":       "ms",
	"core.tick_ms.p50":        "ms",
	"core.allocs_per_op":      "allocs",
	"core.alloc_bytes_per_op": "B",
	"core.path_ases":          "count",
	"gateway.rejected":        "count",
	"gateway.expired":         "count",
	"router.processed":        "count",
	"router.drop.decode":      "count",
	"router.drop.expired":     "count",
	"router.drop.stale":       "count",
	"router.drop.blocked":     "count",
	"router.drop.bad_hvf":     "count",
	"router.drop.replay":      "count",
	"router.drop.overuse":     "count",
	"router.drop.best_effort": "count",
	"cserv.ee_setup_fail":     "count",
	"cserv.ee_renew_fail":     "count",
	"cserv.rate_limited":      "count",
	"cserv.renew_throttle":    "count",
	"admission.reject":        "count",
	"keeper.demoted":          "count",
}

// record describes the run and the host it ran on, so a regression can be
// told apart from a host change.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       int                `json:"trace"`
	Commit      string             `json:"commit"`
	SourceSHA   string             `json:"source_sha256"`
	CPU         string             `json:"cpu"`
	NumCPU      int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	SetupReps   int                `json:"setup_repetitions"`
	Repetitions int                `json:"repetitions"`
	Spread      map[string]float64 `json:"spread_iqr_over_median,omitempty"`
	Detail      map[string]float64 `json:"detail,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	CheckError  string             `json:"check_error,omitempty"`
}

func (r *record) fill(w *workload, o opts, seconds float64, trace int) {
	r.Workload, r.Seed, r.Seconds, r.Trace = w.name, o.seed, seconds, trace
	r.Commit = vcsRevision()
	// run.sh starts the binary from the repository root; tests run in
	// the benchmark's own directory.
	root := "."
	if _, err := os.Stat("perfbench"); err != nil {
		root = ".."
	}
	r.SourceSHA = sourceDigest(root)
	r.CPU = cpuModel()
	r.NumCPU = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.GoVersion = runtime.Version()
	r.SetupReps, r.Repetitions = w.setupReps, w.reps
	if trace == 1 {
		r.SetupReps, r.Repetitions = 1, 1
	}
}

// vcsRevision returns the commit the binary was built from, when the build
// ran inside a git checkout.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod files under root, so runs
// outside a git checkout still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
