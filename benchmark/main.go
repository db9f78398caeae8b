// Command benchmark is the repository benchmark: it runs the paper's
// running example (Figures 4, 6 and 8: aggregate approved orders, order
// each item type from the supplier, record the confirmations) on the
// three product stacks under a closed loop and reports end-to-end and
// per-layer metrics. See README.md in this directory.
//
//	go run . --workload paper-burst --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with no hooks installed; with --trace 1
// they are the per-layer ones from a separate traced run, whose phases
// run a fixed instance count (--seconds only caps them). The process
// exits non-zero when any instance fails or the business result is
// wrong.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"wfsql"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	data    wfsql.Workload // Seed is filled in from --seed
	workers int
	journal bool
	// warmup instances run on every fresh environment before anything
	// on it is measured, so plan caches fill and lazy set-up finishes.
	warmup int
	// traced instances run in each phase of a traced run: untraced, then
	// traced. A fixed count makes the per-instance counts (statements,
	// calls, fsyncs) repeat exactly.
	traced int
}

var workloads = []workload{
	{name: "paper-burst", data: wfsql.Workload{Orders: 120, Items: 8, ApprovalPercent: 80},
		workers: 2, warmup: 150, traced: 12000},
	{name: "wide-cursor", data: wfsql.Workload{Orders: 2000, Items: 400, ApprovalPercent: 80},
		workers: 1, warmup: 3, traced: 100},
	{name: "scan-heavy", data: wfsql.Workload{Orders: 20000, Items: 4, ApprovalPercent: 80},
		workers: 1, warmup: 10, traced: 400},
	{name: "durable-burst", data: wfsql.Workload{Orders: 120, Items: 8, ApprovalPercent: 80},
		workers: 2, journal: true, warmup: 30, traced: 1200},
}

// rounds is how many slices each stack's end-to-end window is cut into.
// The stacks take turns, one slice each per round, so that all three are
// measured across the whole run and a spell of noise on the machine is
// shared out rather than landing on one stack. Each slice runs on a fresh
// environment whose build is timed; inst_per_s, setup_s and heap_mb are
// medians over the slices.
const rounds = 10

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the generated orders")
	seconds := flag.Float64("seconds", 20, "measured seconds per run, shared by the three stacks")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload {paper-burst|wide-cursor|scan-heavy|durable-burst} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	wl.data.Seed = *seed
	if n := runtime.NumCPU(); wl.workers > n {
		wl.workers = n
	}

	res, err := run(*wl, *seconds, *trace == 1)
	if res != nil {
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures every stack on the workload. It returns a result whenever
// all stacks ran to the end, and an error when any instance failed or a
// business result was wrong.
func run(wl workload, seconds float64, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(".", ".bench-wal-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(dir)

	sync := "off"
	if wl.journal {
		sync = fmt.Sprintf("%s batch=%d", walSync.Mode, walSync.BatchSize)
	}
	fmt.Printf("# workload=%s seed=%d orders=%d items=%d approve=%d%% workers=%d journal=%s trace=%v\n",
		wl.name, wl.data.Seed, wl.data.Orders, wl.data.Items, wl.data.ApprovalPercent, wl.workers, sync, traced)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var failures []error
	tally := func(l load, checkErr error) {
		res.Attempted += l.attempted
		res.Failed += l.failed
		if checkErr != nil {
			failures = append(failures, checkErr)
		}
	}
	finish := func() (*result, error) {
		if res.Failed > 0 {
			failures = append(failures, fmt.Errorf("%d of %d instances failed", res.Failed, res.Attempted))
		}
		if len(failures) > 0 {
			res.Correct = false
			return res, fmt.Errorf("wrong result: %v", failures)
		}
		return res, nil
	}

	measure := timeStacks
	if traced {
		measure = traceStacks
	}
	if err := measure(wl, dir, seconds, res, tally); err != nil {
		return nil, err
	}
	return finish()
}

// timeStacks runs the interleaved rounds of the timed run and puts the
// end-to-end metrics into res.
func timeStacks(wl workload, dir string, seconds float64, res *result, tally func(load, error)) error {
	// The end-to-end window is split evenly across the stacks and cut
	// into rounds. Round -1 is not recorded: the process's first slices
	// run slower (heap growth, first use of code paths) on every stack.
	window := time.Duration(seconds * float64(time.Second) / float64(len(stacks)))
	timed := make([]*timedRun, len(stacks))
	unrecorded := make([]*timedRun, len(stacks))
	for i := range stacks {
		timed[i], unrecorded[i] = &timedRun{}, &timedRun{}
	}
	for k := -1; k < rounds; k++ {
		runs := timed
		if k < 0 {
			runs = unrecorded
		}
		// Rotate the stack that starts the round, so none always runs first.
		for j := range stacks {
			i := (k + 1 + j) % len(stacks)
			if err := runs[i].round(stacks[i], wl, dir, window/rounds); err != nil {
				return err
			}
		}
	}
	for _, r := range unrecorded {
		tally(r.load, r.checkErr)
	}
	var setupSum, heapMax float64
	for i, st := range stacks {
		r := timed[i]
		tally(r.load, r.checkErr)
		setupSum += r.setup().Seconds()
		heapMax = max(heapMax, r.heapMB())
		fmt.Printf("# %-6s timed:  attempted=%d failed=%d samples=%d inst/s=%.1f p50=%.4fms p90=%.4fms setup=%.4fs heap=%.2fMiB\n",
			st.name, r.attempted, r.failed, len(r.lat), r.instPerSec(),
			ms(r.quantile(0.5)), ms(r.quantile(0.9)), r.setup().Seconds(), r.heapMB())
		put(res, st.name+".inst_per_s", r.instPerSec(), "1/s")
		put(res, st.name+".p50_ms", ms(r.quantile(0.5)), "ms")
		put(res, st.name+".p90_ms", ms(r.quantile(0.9)), "ms")
	}
	put(res, "setup_s", setupSum, "s")
	put(res, "heap_mb", heapMax, "MiB")
	return nil
}

// traceStacks runs each stack's untraced and traced phases and puts the
// per-layer metrics into res.
func traceStacks(wl workload, dir string, seconds float64, res *result, tally func(load, error)) error {
	// Each fixed-count phase is capped at the run length, so a run
	// that has become far slower than expected still ends.
	limit := time.Duration(seconds * float64(time.Second))
	for _, st := range stacks {
		base, rt, err := measureUntraced(st, wl, dir, limit)
		if err != nil {
			return err
		}
		tally(base.load, base.checkErr)
		tr, err := measureTraced(st, wl, dir, limit)
		if err != nil {
			return err
		}
		tally(tr.load, tr.checkErr)
		overhead := base.instPerSec()/tr.instPerSec() - 1
		fmt.Printf("# %-6s traced: attempted=%d failed=%d inst/s=%.1f (untraced twin: attempted=%d failed=%d inst/s=%.1f; tracing overhead %+.1f%%)\n",
			st.name, tr.attempted, tr.failed, tr.instPerSec(), base.attempted, base.failed, base.instPerSec(), 100*overhead)
		for _, m := range tr.layers {
			put(res, st.name+"."+m.name, m.value, m.unit)
		}
		put(res, st.name+".runtime.allocs_per_inst", rt.allocsPerInst, "count")
		put(res, st.name+".runtime.alloc_kb_per_inst", rt.allocKBPerInst, "KiB")
		put(res, st.name+".runtime.gc_cpu_share", rt.gcShare, "share")
		put(res, st.name+".trace.inst_per_s", tr.instPerSec(), "1/s")
		put(res, st.name+".trace.overhead", overhead, "ratio")
		put(res, st.name+".failed", float64(base.failed+tr.failed), "count")
	}
	return nil
}

func put(r *result, name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (upper middle for even counts).
func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
