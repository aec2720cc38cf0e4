// Command qsbench is the repository's benchmark. It drives the QuickStore
// engine from outside, through the public functions of internal/client,
// internal/oo7, internal/server, internal/wire and internal/disk, on one of
// three workloads (commit, oo7, restart; see NOTES.md), checks that the
// workload's results are correct, and prints every metric with its unit.
//
//	qsbench --workload commit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured untraced; with --trace 1 they are the per-layer ones, from a
// traced window set beside an untraced one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up, all
// but the measured instance in child processes; setup_s is the median.
const setupRepeats = 3

// flushPolicy states how durable each write is. It must be the same on
// both sides of any comparison.
const flushPolicy = "log: wal.Log in-memory ring, group commit on, no device delay (no SetWriteDelay); " +
	"volume: disk.FileStore WriteAt with no fsync"

// plan is how a run of a workload is laid out: the measured time is split
// into slices, and crashes crash cycles follow each slice. Spreading the
// crash cycles over the run, rather than bunching them at its end, samples
// the machine's state over the whole run.
type plan struct {
	setup   func(*env) (instance, error)
	slices  int
	crashes int
}

var plans = map[string]plan{
	"commit":  {setupCommit, 40, 5},
	"oo7":     {setupOO7, 5, 2},
	"restart": {setupRestart, 1, 0}, // its window is made of crash cycles
}

func main() {
	var (
		workload = flag.String("workload", "", "commit, oo7 or restart")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced window")
		dir      = flag.String("dir", "", "scratch directory for volumes (removed at exit)")
		results  = flag.String("results", "", "directory for the result file and trace (optional)")
		commit   = flag.String("commit", "unknown", "source revision, recorded in the result file")
		child    = flag.String("child", "", "probes: run the defect probes; setup: set the workload up once; measure: also measure it, untraced; print a JSON summary and exit")
	)
	flag.Parse()
	pl, ok := plans[*workload]
	if !ok || *dir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: qsbench --workload commit|oo7|restart --seed N --seconds S --trace 0|1 --dir DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
	r := &runner{workload: *workload, seed: *seed, dir: *dir, plan: pl, seconds: *seconds,
		window: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		// A traced run measures half its seconds untraced and half traced,
		// each half with half the crash cycles.
		r.window /= 2
		r.plan.crashes = (r.plan.crashes + 1) / 2
	}
	if *child != "" {
		err := r.runChild(*child)
		os.RemoveAll(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qsbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := r.run(*trace == 1)
	os.RemoveAll(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
	res.Env = environment(*dir, *commit, *seed, *workload, *seconds, *trace)
	if *results != "" {
		if err := res.write(*results, r.tr); err != nil {
			fmt.Fprintln(os.Stderr, "qsbench:", err)
			os.Exit(1)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "qsbench: failure:", e)
	}
	line, err := json.Marshal(res.Line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runner performs one benchmark run.
type runner struct {
	workload string
	seed     int64
	dir      string
	window   time.Duration
	seconds  float64 // as given, before a traced run halves window
	plan     plan
	tr       *tracer
	n        int // instances built, for unique volume directories
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the result file: the line plus how it was measured.
type result struct {
	Line          resultLine        `json:"result"`
	FailedShare   float64           `json:"failed_share"`
	Errors        []string          `json:"errors,omitempty"`
	Probes        map[string]string `json:"probes"`
	Timings       []timing          `json:"timings"`
	SetupSeconds  []float64         `json:"setup_seconds,omitempty"`
	WindowSeconds float64           `json:"window_seconds"`
	Env           map[string]string `json:"env"`
}

func (r *runner) instance(tr *tracer) (instance, float64, error) {
	r.n++
	e := &env{dir: filepath.Join(r.dir, fmt.Sprintf("inst%d", r.n)), seed: r.seed, tr: tr}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	inst, err := r.plan.setup(e)
	return inst, time.Since(t0).Seconds(), err
}

// childResult is what a child process reports.
type childResult struct {
	Probes     map[string]string `json:"probes,omitempty"`
	Failures   int               `json:"probe_failures"`
	SetupS     float64           `json:"setup_s"`
	HeadlineNs float64           `json:"headline_ns"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
}

// runChild does what mode names (see the -child flag) and prints a
// childResult.
func (r *runner) runChild(mode string) error {
	out := childResult{Probes: make(map[string]string)}
	if mode == "probes" {
		for i, pr := range probes {
			d := filepath.Join(r.dir, fmt.Sprintf("probe%d", i))
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
			if err := pr.run(d); err != nil {
				out.Failures++
				out.Probes[pr.name] = "FAILS: " + err.Error()
			} else {
				out.Probes[pr.name] = "passes"
			}
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	inst, s, err := r.instance(nil)
	if err != nil {
		return err
	}
	out.SetupS = s
	if mode == "measure" {
		p := r.measure(inst)
		out.HeadlineNs = headline(r.workload, p)
		out.Attempted, out.Failed, out.Errors = p.attempted, p.failed, p.errs
	}
	inst.close()
	return json.NewEncoder(os.Stdout).Encode(out)
}

// elsewhere runs a child process of this program. Servers that share a
// process do not start equal: the runtime zeroes reused heap memory, which
// touches all of a later server's 256 MB log ring, where a fresh process
// touches only what the log uses. So the probes' servers and every
// instance but the one measured here are built in children.
func (r *runner) elsewhere(mode string, k int, trace int) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	out, err := exec.Command(exe, "--child", mode, "--workload", r.workload,
		"--seed", strconv.FormatInt(r.seed, 10),
		"--seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--dir", filepath.Join(r.dir, fmt.Sprintf("child%d", k))).Output()
	if err != nil {
		return res, fmt.Errorf("%s in a child process: %w", mode, err)
	}
	return res, json.Unmarshal(out, &res)
}

func (r *runner) run(traced bool) (*result, error) {
	pr, err := r.elsewhere("probes", 0, 0)
	if err != nil {
		return nil, err
	}
	res := &result{Probes: pr.Probes}
	failures := pr.Failures

	var p *phase
	var rep *report
	if !traced {
		var setupS []float64
		for k := 1; k < setupRepeats; k++ {
			c, err := r.elsewhere("setup", k, 0)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, c.SetupS)
		}
		inst, s, err := r.instance(nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		p = r.measure(inst)
		rss := peakRSSMB()
		inst.close()
		rep = endToEnd(p, setupS, failures, rss)
		res.SetupSeconds = setupS
	} else {
		// The untraced half runs in a child; the per-layer figures come from
		// the traced half only.
		u, err := r.elsewhere("measure", 1, 1)
		if err != nil {
			return nil, err
		}
		r.tr = newTracer()
		inst, _, err := r.instance(r.tr)
		if err != nil {
			return nil, err
		}
		p = r.measure(inst)
		inst.close()
		// Hand the instance's memory back before the spans are analysed.
		runtime.GC()
		debug.FreeOSMemory()
		p.attempted += u.Attempted
		p.failed += u.Failed
		p.errs = append(u.Errors, p.errs...)
		rep = perLayer(p, r.tr.all(), ratio(headline(r.workload, p), u.HeadlineNs))
	}
	res.Line = resultLine{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   rep.jsonMetrics(),
	}
	res.FailedShare = ratio(float64(p.failed), float64(p.attempted))
	res.Errors = p.errs
	res.Timings = rep.timings
	res.WindowSeconds = p.elapsed.Seconds()
	return res, nil
}

// measure runs the timed slices with their crash cycles, then the final
// correctness check.
func (r *runner) measure(inst instance) *phase {
	p := &phase{}
	for k := 0; k < r.plan.slices; k++ {
		inst.run(p, r.window/time.Duration(r.plan.slices))
		for c := 0; c < r.plan.crashes; c++ {
			inst.crash(p)
		}
	}
	inst.check(p)
	return p
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// environment records what a comparison must hold equal.
func environment(dir, commit string, seed int64, workload string, seconds float64, trace int) map[string]string {
	return map[string]string{
		"workload":     workload,
		"seed":         strconv.FormatInt(seed, 10),
		"seconds":      strconv.FormatFloat(seconds, 'g', -1, 64),
		"trace":        strconv.Itoa(trace),
		"go_version":   runtime.Version(),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"git_commit":   commit,
		"volume_fs":    filesystemOf(dir),
		"flush_policy": flushPolicy,
	}
}

// filesystemOf returns the type of the filesystem holding path, from the
// longest matching mount point in /proc/mounts.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// write stores the result file and, for traced runs, the spans.
func (res *result) write(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e := res.Env
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%s-trace%s", e["workload"], e["seed"], e["trace"]))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeFile(base + ".spans.tsv.gz")
	}
	return nil
}
