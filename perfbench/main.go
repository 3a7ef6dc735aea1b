// Command perfbench is the repository benchmark. It runs one workload of
// the dfmresyn pipeline through the program's public entry points, times
// it, checks its outputs, and prints one JSON result as the last line of
// standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	paper-sweep    resyn.Run (the Table II q-sweep, paper defaults) over the
//	               paper's benchmark circuits; Table I rows from each sweep's
//	               original design
//	scale-analyze  one cold Env.Analyze of a seeded 6-block cipher circuit
//	               read from Verilog text
//	physical-scale cold Env.PhysicalOnly plus dfm.BuildFaults over a batch of
//	               seeded 10k-gate Verilog netlists, with no ATPG
//
// A run sets up the workload several times (setup_s is the median), then
// repeats the workload's operations until the passes add up to --seconds,
// always completing at least one pass (wall_s is the median pass). The result
// carries wall_s, setup_s and peak_rss_mb with --trace 0. With --trace 1 the
// run adds one pass under an obs.Tracer and obs.Ledger and reports the
// per-layer metrics instead. Every run prints the machine record and the
// operations' count metrics on the line before the result.
//
// Output checks run after the timer stops. An operation whose call returns
// an error or whose outputs fail a check counts as failed. With --update the
// run writes perfbench/expected/<workload>-seed<N>.txt from its outputs
// instead of comparing against it.
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dfmresyn/internal/library"
)

// sweepCircuits are the paper-sweep circuits, a subset of bench.Names sized
// to the benchmark's run length (sweep seconds at one worker on a 2-vCPU
// box in parentheses). sparc_lsu (22 s) and tv80 (6.5 s) carry the
// PODEM→SAT tail and sparc_fpu is the kept Table I row; sparc_exu (37 s),
// des_perf (8.3 s), aes_core (5.5 s) and sparc_ffu (3.2 s) are left out.
var sweepCircuits = []string{
	"tv80", "systemcaes", "wb_conmax", "sparc_spu",
	"sparc_ifu", "sparc_tlu", "sparc_lsu", "sparc_fpu",
}

const (
	// scaleBlocks sizes scale-analyze well below the 8192-net limit above
	// which implic.New gives up (implic.MaxLiterals/2). One 12-block
	// analysis (13 s) spread by up to 0.27 of its median across runs on a
	// shared 2-vCPU host; three 6-block analyses (3.6 s each) per run,
	// reported as their median, spread by half as much.
	scaleBlocks = 6
	// dieBlocks and dies size physical-scale: each die is a 30-block
	// netlist of over 10k gates.
	dieBlocks = 30
	dies      = 4
	// setupRuns is how many times a run sets up; setup_s is the median.
	setupRuns = 11
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"paper-sweep", "scale-analyze", "physical-scale"}

// Seeds whose outputs are pinned by files under expected/: the default
// seed and one held out while the benchmark was written.
var pinnedSeeds = []int64{1, 7}

//go:embed expected
var expectedFS embed.FS

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newWorkload generates the named workload's inputs from the seed. This
// generation is the benchmark's own work and is never timed.
func newWorkload(name string, seed int64) (workload, error) {
	lib := library.OSU018Like()
	switch name {
	case "paper-sweep":
		w := &paperSweep{}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(sweepCircuits)) {
			w.order = append(w.order, sweepCircuits[i])
		}
		return w, nil
	case "scale-analyze":
		w := &scaleAnalyze{seed: seed, name: fmt.Sprintf("cipher%d", scaleBlocks)}
		var err error
		w.text, err = cipherVerilog(w.name, lib, seed, scaleBlocks)
		return w, err
	case "physical-scale":
		w := &physicalScale{seed: seed}
		for i := 0; i < dies; i++ {
			text, err := cipherVerilog(fmt.Sprintf("die%d", i), lib, seed*int64(dies)+int64(i), dieBlocks)
			if err != nil {
				return nil, err
			}
			w.texts = append(w.texts, text)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed on the line before the result: what the run measured
// on, its raw samples, and the count metrics its operations report.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Machine  *machine           `json:"machine"`
	SetupS   []float64          `json:"setup_samples_s"`
	PassS    []float64          `json:"pass_samples_s"`
	PassCPUS []float64          `json:"pass_cpu_s"`
	TracedS  float64            `json:"traced_pass_s,omitempty"`
	Counts   map[string]float64 `json:"counts"`
	Problems []string           `json:"problems,omitempty"`
}

func run() error {
	name := flag.String("workload", "", "paper-sweep, scale-analyze or physical-scale")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measure for this many seconds (at least one pass)")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	update := flag.Bool("update", false, "write the expected file for this workload and seed")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	rec := &record{Workload: *name, Seed: *seed, Machine: startMachine()}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}

	v := &verifier{w: w, first: map[string][]string{}}
	for measured := 0.0; measured < float64(*seconds); {
		var counts map[string]float64
		if rec.Counts == nil {
			counts = map[string]float64{}
		}
		wall, cpu := runPass(w, v, counts, len(rec.PassS) == 0)
		rec.PassS = append(rec.PassS, wall)
		rec.PassCPUS = append(rec.PassCPUS, cpu)
		measured += wall
		if counts != nil {
			rec.Counts = counts
		}
	}
	if err := v.expected(*name, *seed, *update); err != nil {
		return err
	}

	res := result{Metrics: map[string]metric{}}
	if *trace == 1 {
		t, err := runTraced(w, v, *name)
		if err != nil {
			return err
		}
		rec.TracedS = t.passS
		vals, err := t.layerValues(w)
		if err != nil {
			return err
		}
		vals["obs.overhead_frac"] = t.passS/median(rec.PassS) - 1
		for _, l := range layers {
			res.Metrics[l.name] = metric{vals[l.name], l.unit}
		}
	} else {
		res.Metrics["wall_s"] = metric{median(rec.PassS), "s"}
		res.Metrics["setup_s"] = metric{median(rec.SetupS), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	rec.Machine.finish()
	rec.Problems = v.problems
	res.Attempted, res.Failed = v.attempted, v.failed
	res.Correct = v.failed == 0
	return printJSON(rec, res)
}

// verifier checks every operation of every pass: calls must succeed, each
// operation's fingerprint must repeat exactly on every pass, and on the
// pinned seeds it must match the expected file.
type verifier struct {
	w                 workload
	first             map[string][]string // fingerprint of each operation's first run
	order             []string
	attempted, failed int
	problems          []string
}

func (v *verifier) fail(circuit, problem string) {
	v.failed++
	v.problems = append(v.problems, circuit+": "+problem)
}

// verify checks one operation and reports whether it succeeded.
func (v *verifier) verify(o op, deep bool) bool {
	v.attempted++
	if o.err != nil {
		v.fail(o.circuit, o.err.Error())
		return false
	}
	lines, problems := v.w.check(o, deep)
	if prev, ok := v.first[o.circuit]; !ok {
		v.first[o.circuit] = lines
		v.order = append(v.order, o.circuit)
	} else if !slices.Equal(prev, lines) {
		problems = append(problems, "outputs differ between passes")
	}
	if len(problems) > 0 {
		v.fail(o.circuit, strings.Join(problems, "; "))
	}
	return true
}

// runPass runs every operation of w once after a runtime.GC(), timing each
// one alone and checking it as soon as its timer stops, so no operation's
// results outlive its check and the heap a pass leaves does not depend on
// the order of its operations. It adds the operations' counts to counts
// when that is non-nil, and returns the pass's timed wall and CPU seconds.
func runPass(w workload, v *verifier, counts map[string]float64, deep bool) (wall, cpu float64) {
	runtime.GC()
	for i := 0; i < w.size(); i++ {
		t0, cpu0 := time.Now(), cpuSeconds()
		o := w.run(i)
		wall += time.Since(t0).Seconds()
		cpu += cpuSeconds() - cpu0
		if v.verify(o, deep) && counts != nil {
			for m, c := range w.counts(o) {
				counts[m] += c
			}
		}
	}
	if counts["resyn.pd_calls"] > 0 {
		counts["resyn.commit_frac"] = counts["resyn.commits"] / counts["resyn.pd_calls"]
	}
	return wall, cpu
}

// expected compares the operations' fingerprints with the expected file of
// the workload and seed, which must exist for the pinned seeds; with update
// it writes the file instead.
func (v *verifier) expected(workload string, seed int64, update bool) error {
	file := fmt.Sprintf("%s-seed%d.txt", workload, seed)
	if update {
		var b strings.Builder
		for _, c := range v.order {
			for _, l := range v.first[c] {
				fmt.Fprintf(&b, "%s\t%s\n", c, l)
			}
		}
		return os.WriteFile(filepath.Join("perfbench", "expected", file), []byte(b.String()), 0o644)
	}
	data, err := expectedFS.ReadFile("expected/" + file)
	if errors.Is(err, fs.ErrNotExist) && !slices.Contains(pinnedSeeds, seed) {
		return nil
	}
	if err != nil {
		v.fail(workload, fmt.Sprintf("expected outputs for seed %d: %v", seed, err))
		return nil
	}
	want := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		c, l, _ := strings.Cut(line, "\t")
		want[c] = append(want[c], l)
	}
	for _, c := range v.order {
		if !slices.Equal(want[c], v.first[c]) {
			v.fail(c, fmt.Sprintf("outputs differ from expected/%s:\n  want %q\n  got  %q", file, want[c], v.first[c]))
		}
		delete(want, c)
	}
	for c := range want {
		v.fail(c, "expected operation did not run")
	}
	return nil
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printJSON(rec *record, res result) error {
	r, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", r, out)
	return nil
}
