package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfsql"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
)

// stack drives one product stack through its public surface: the figure
// builder, Engine.Deploy + Deployment.Run (BIS, Oracle) or Runtime.Run
// (WF), and the journal attachment of its host.
type stack struct {
	name string
	// self names the layer that owns the time not spent in sqldb or the
	// supplier call.
	self string
	// deploy builds the stack's figure on env and returns the function
	// that runs one instance to completion.
	deploy func(env *wfsql.Environment) (func() error, error)
	attach func(env *wfsql.Environment, rec *journal.Recorder)
}

var stacks = []stack{
	{
		name: "bis", self: "engine",
		deploy: func(env *wfsql.Environment) (func() error, error) {
			d, err := env.Engine.Deploy(env.BuildFigure4BIS())
			if err != nil {
				return nil, err
			}
			return func() error { return engineRun(d) }, nil
		},
		attach: func(env *wfsql.Environment, rec *journal.Recorder) { env.Engine.AttachJournal(rec) },
	},
	{
		name: "wf", self: "mswf",
		deploy: func(env *wfsql.Environment) (func() error, error) {
			root := env.BuildFigure6WF()
			return func() error {
				_, err := env.Runtime.Run(root, map[string]any{"Index": 0})
				return err
			}, nil
		},
		attach: func(env *wfsql.Environment, rec *journal.Recorder) { env.Runtime.AttachJournal(rec) },
	},
	{
		name: "oracle", self: "engine",
		deploy: func(env *wfsql.Environment) (func() error, error) {
			p, err := env.BuildFigure8Oracle()
			if err != nil {
				return nil, err
			}
			d, err := env.Engine.Deploy(p)
			if err != nil {
				return nil, err
			}
			return func() error { return engineRun(d) }, nil
		},
		attach: func(env *wfsql.Environment, rec *journal.Recorder) { env.Engine.AttachJournal(rec) },
	},
}

func engineRun(d *engine.Deployment) error {
	in, err := d.Run(nil)
	if err != nil {
		return err
	}
	if s := in.State(); s != engine.StateCompleted {
		return fmt.Errorf("instance ended %s", s)
	}
	return nil
}

// walSync is the journal's sync policy on durable-burst, set explicitly
// so a change of the library default does not silently change the
// workload.
var walSync = journal.SyncPolicy{Mode: journal.SyncCritical, BatchSize: 1}

// harness is one stack's fresh environment, deployed and ready to run.
type harness struct {
	env     *wfsql.Environment
	run     func() error
	rec     *journal.Recorder
	walDir  string
	runs    int              // instances completed on this environment
	settled int              // runs whose confirmations settle checked and deleted
	totals  map[string]int64 // approved quantity per item, read once
}

// newHarness builds the environment, seeds it, opens and attaches the
// journal (durable workloads) and deploys the figure. hook, when non-nil,
// installs tracing on the environment before the figure is deployed.
func newHarness(st stack, wl workload, dir string, hook func(*harness)) (*harness, error) {
	h := &harness{env: wfsql.NewEnvironment(wl.data)}
	if wl.journal {
		d, err := os.MkdirTemp(dir, st.name+"-")
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		h.walDir = d
		if h.rec, err = journal.Open(d); err != nil {
			return nil, err
		}
		h.rec.SetSyncPolicy(walSync)
		st.attach(h.env, h.rec)
	}
	if hook != nil {
		hook(h)
	}
	run, err := st.deploy(h.env)
	if err != nil {
		h.close()
		return nil, fmt.Errorf("%s: deploy: %w", st.name, err)
	}
	h.run = run
	return h, nil
}

// close closes the journal. The WAL stays on disk for checkWAL; run
// removes the whole directory at the end.
func (h *harness) close() error {
	if h.rec == nil {
		return nil
	}
	return h.rec.Close()
}

// load is the outcome of one closed-loop phase.
type load struct {
	lat       []time.Duration // one per completed instance
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (l *load) instPerSec() float64 { return float64(len(l.lat)) / l.elapsed.Seconds() }

// quantile returns the nearest-rank q-quantile of the latencies.
func (l *load) quantile(q float64) time.Duration {
	if len(l.lat) == 0 {
		return 0
	}
	s := slices.Clone(l.lat)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// drive runs a closed loop: each worker starts its next instance only
// when the previous one returned. It stops at the deadline, or once
// limit instances have started when limit > 0; the deadline then only
// caps a run that has become far slower than expected.
func (h *harness) drive(workers, limit int, deadline time.Time) load {
	var (
		mu      sync.Mutex
		out     load
		started atomic.Int64
		wg      sync.WaitGroup
	)
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var attempted, failed int
			var firstErr error
			for time.Now().Before(deadline) {
				if limit > 0 && started.Add(1) > int64(limit) {
					break
				}
				t0 := time.Now()
				err := h.run()
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, d)
			}
			mu.Lock()
			out.lat = append(out.lat, lat...)
			out.attempted += attempted
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(begin)
	h.runs += len(out.lat)
	return out
}

// warm runs the workload's warm-up instances; any failure is fatal.
func (h *harness) warm(wl workload) error {
	l := h.drive(wl.workers, wl.warmup, time.Now().Add(time.Minute))
	if l.failed > 0 || len(l.lat) != wl.warmup {
		return fmt.Errorf("warm-up: %d of %d instances completed, %d failed: %v",
			len(l.lat), wl.warmup, l.failed, l.firstErr)
	}
	return nil
}

// runtimeDelta is what the Go runtime did during a phase.
type runtimeDelta struct {
	allocsPerInst  float64
	allocKBPerInst float64
	gcShare        float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var v [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// runtimeDeltaOf turns runtime counter deltas into per-instance figures.
func runtimeDeltaOf(d [4]float64, instances int) runtimeDelta {
	n := float64(max(instances, 1))
	r := runtimeDelta{allocsPerInst: d[0] / n, allocKBPerInst: d[1] / 1024 / n}
	if d[3] > 0 {
		r.gcShare = d[2] / d[3]
	}
	return r
}

// ready builds a fresh environment (see newHarness), warms it up and
// settles the warm-up. It returns how long the build took.
func ready(st stack, wl workload, dir string, hook func(*harness)) (*harness, time.Duration, error) {
	t0 := time.Now()
	h, err := newHarness(st, wl, dir, hook)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	if err := h.warm(wl); err != nil {
		h.close()
		return nil, 0, fmt.Errorf("%s: %w", st.name, err)
	}
	if err := h.settle(st); err != nil {
		h.close()
		return nil, 0, err
	}
	return h, build, nil
}

// done checks the business result of the instances run since the last
// settle, closes the journal and checks it. checkErr is the first failed
// check; err means the journal could not be closed.
func (h *harness) done(st stack) (checkErr, err error) {
	checkErr = checkResult(st, h)
	if err := h.close(); err != nil {
		return nil, err
	}
	if checkErr == nil && h.rec != nil {
		checkErr = checkWAL(st, h)
	}
	return checkErr, nil
}

// timedRun is the untraced measurement of one stack, gathered over the
// rounds of a run.
type timedRun struct {
	load
	setups   []time.Duration // one environment build per round
	heaps    []float64       // live heap per round after set-up and warm-up, MiB
	rates    []float64       // completed instances per second, one per round
	checkErr error           // the first failed business or journal check
}

// instPerSec is the median of the per-round rates.
func (r *timedRun) instPerSec() float64 { return median(r.rates) }

// setup is the median environment build time.
func (r *timedRun) setup() time.Duration { return median(r.setups) }

// heapMB is the median live heap the stack holds after set-up and
// warm-up.
func (r *timedRun) heapMB() float64 { return median(r.heaps) }

// round builds a fresh environment for the stack, timing the build, warms
// it up, runs the closed loop for d and then checks the business result
// and, on durable workloads, the closed journal. No hooks are installed.
// The environment is dropped at the end, so one stack's live heap never
// adds to another's GC work.
func (r *timedRun) round(st stack, wl workload, dir string, d time.Duration) error {
	runtime.GC()
	base := heapAlloc()
	h, build, err := ready(st, wl, dir, nil)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, build)
	runtime.GC()
	r.heaps = append(r.heaps, float64(heapAlloc()-base)/(1<<20))

	l := h.drive(wl.workers, 0, time.Now().Add(d))
	r.lat = append(r.lat, l.lat...)
	r.attempted += l.attempted
	r.failed += l.failed
	if r.firstErr == nil {
		r.firstErr = l.firstErr
	}
	r.elapsed += l.elapsed
	r.rates = append(r.rates, l.instPerSec())

	checkErr, err := h.done(st)
	if err != nil {
		return err
	}
	if r.checkErr == nil {
		r.checkErr = checkErr
	}
	return nil
}

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fixedRun is one stack's run of the workload's fixed instance count on
// a fresh, warmed-up environment.
type fixedRun struct {
	load
	checkErr error
}

// measureUntraced runs the traced instance count with no hooks and reads
// the Go runtime's counters around it. It is the traced run's twin, so
// their rates give the tracing overhead. limit bounds the closed loop.
func measureUntraced(st stack, wl workload, dir string, limit time.Duration) (*fixedRun, runtimeDelta, error) {
	h, _, err := ready(st, wl, dir, nil)
	if err != nil {
		return nil, runtimeDelta{}, err
	}
	before := readRuntime()
	l := h.drive(wl.workers, wl.traced, time.Now().Add(limit))
	after := readRuntime()
	var d [4]float64
	for i := range d {
		d[i] = after[i] - before[i]
	}
	r := &fixedRun{load: l}
	if r.checkErr, err = h.done(st); err != nil {
		return nil, runtimeDelta{}, err
	}
	return r, runtimeDeltaOf(d, len(l.lat)), nil
}

// checkWAL re-reads the closed journal: it must scan with no torn frame
// and hold one completion record per instance run.
func checkWAL(st stack, h *harness) error {
	f, err := os.Open(filepath.Join(h.walDir, journal.WALName))
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := journal.Scan(f)
	if err != nil {
		return fmt.Errorf("%s: scan journal: %w", st.name, err)
	}
	if res.Torn {
		return fmt.Errorf("%s: journal has a torn frame: %s", st.name, res.TornReason)
	}
	done := 0
	for i := range res.Records {
		if res.Records[i].Kind == journal.KindInstanceComplete {
			done++
		}
	}
	if done != h.runs {
		return fmt.Errorf("%s: journal holds %d completions, want %d", st.name, done, h.runs)
	}
	return nil
}
