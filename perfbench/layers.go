package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dfmresyn/internal/implic"
	"dfmresyn/internal/obs"
)

// layer is one per-layer metric of the traced run: its unit, which
// direction is better, the end-to-end metric it should move, and the
// workloads where its layer does the work (elsewhere it idles, so a change
// to that layer is predicted to leave those workloads unchanged).
type layer struct {
	name, unit, better string
	moves, where       string
}

// layers is the per-layer metric set, in the order BENCHMARK.json lists it.
// Times are self times (a span's duration minus its children's) unless the
// name says run_s, uint_screen_s or signoff_s, which are inclusive
// durations of one call.
var layers = func() []layer {
	ls := []layer{
		{"flow.new_env_s", "s", "lower", "setup_s", "all"},
		{"bench.build_s", "s", "lower", "setup_s", "paper-sweep"},
		{"verilog.read_s", "s", "lower", "setup_s", "scale-analyze, physical-scale"},
	}
	for _, c := range sweepCircuits {
		ls = append(ls, layer{"resyn.run_s." + c, "s", "lower", "wall_s", "paper-sweep"})
	}
	return append(ls, []layer{
		{"resyn.pd_calls", "count", "lower", "wall_s", "paper-sweep"},
		{"resyn.synth_calls", "count", "lower", "wall_s", "paper-sweep"},
		{"resyn.commits", "count", "higher", "wall_s", "paper-sweep"},
		{"resyn.commit_frac", "ratio", "higher", "wall_s", "paper-sweep"},
		{"resyn.iter_self_s", "s", "lower", "wall_s", "paper-sweep"},
		{"flow.uint_screen_s", "s", "lower", "wall_s", "paper-sweep"},
		{"flow.uint_screens", "count", "lower", "wall_s", "paper-sweep"},
		{"flow.signoff_s", "s", "lower", "wall_s", "paper-sweep"},
		{"place.s", "s", "lower", "wall_s", "physical-scale"},
		{"route.s", "s", "lower", "wall_s", "physical-scale"},
		{"sta_power.s", "s", "lower", "wall_s", "physical-scale"},
		{"dfm.s", "s", "lower", "wall_s", "physical-scale"},
		{"route.reuse_frac", "ratio", "higher", "wall_s", "paper-sweep"},
		{"dfm.faults", "count", "lower", "wall_s", "physical-scale"},
		{"dfm.bridge_pairs_examined", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.static_s", "s", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.random_s", "s", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.podem_s", "s", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.compact_s", "s", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.cache_s", "s", "lower", "wall_s", "paper-sweep"},
		{"atpg.podem_searches", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.podem_backtracks", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.sat_escalations", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.sat_conflicts", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.tests_kept", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.search_s.podem", "s", "lower", "wall_s", "paper-sweep"},
		{"atpg.search_s.sat", "s", "lower", "wall_s", "paper-sweep"},
		{"atpg.limit_waste_frac", "ratio", "lower", "wall_s", "paper-sweep"},
		{"atpg.tier.cache", "count", "higher", "wall_s", "paper-sweep"},
		{"atpg.tier.implic", "count", "higher", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.tier.collateral", "count", "higher", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.tier.podem", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.tier.sat", "count", "lower", "wall_s", "paper-sweep, scale-analyze"},
		{"atpg.tier.sat-memo", "count", "higher", "wall_s", "paper-sweep, scale-analyze"},
		{"implic.static_proven", "count", "higher", "wall_s", "scale-analyze"},
		{"implic.off_circuits", "count", "lower", "wall_s", "scale-analyze"},
		{"faultsim.sim_blocks", "count", "lower", "wall_s", "scale-analyze"},
		{"faultsim.detect_words", "count", "lower", "wall_s", "scale-analyze"},
		{"fcache.lookups", "count", "lower", "wall_s", "paper-sweep"},
		{"fcache.hit_frac", "ratio", "higher", "wall_s", "paper-sweep"},
		{"cluster.s", "s", "lower", "wall_s", "all"},
		{"obs.unattributed_s", "s", "lower", "wall_s", "all"},
		{"obs.overhead_frac", "ratio", "lower", "none", "all"},
	}...)
}()

// selfBuckets assigns span names to the self-time metrics. Together they
// partition the traced interval: whatever self time falls outside them is
// obs.unattributed_s.
var selfBuckets = map[string]string{
	"bench/flow.NewEnv":        "flow.new_env_s",
	"bench/bench.Build":        "bench.build_s",
	"bench/verilog.ReadModule": "verilog.read_s",
	"resyn/iter":               "resyn.iter_self_s",
	"flow/place":               "place.s",
	"flow/place_incr":          "place.s",
	"flow/route":               "route.s",
	"flow/route_incr":          "route.s",
	"flow/sta_power":           "sta_power.s",
	"flow/dfm":                 "dfm.s",
	"flow/dfm_incr":            "dfm.s",
	"bench/dfm.BuildFaults":    "dfm.s",
	"atpg/static":              "atpg.static_s",
	"atpg/random":              "atpg.random_s",
	"atpg/podem":               "atpg.podem_s",
	"atpg/compact":             "atpg.compact_s",
	"atpg/cache":               "atpg.cache_s",
	"flow/cluster":             "cluster.s",
}

// counterMetrics maps obs registry counters to count metrics. Counts the
// operations' results carry come from workload.counts instead, so untraced
// runs report them the same way.
var counterMetrics = map[string]string{
	"dfm/bridge_pairs_examined": "dfm.bridge_pairs_examined",
	"atpg/podem_searches":       "atpg.podem_searches",
	"atpg/podem_backtracks":     "atpg.podem_backtracks",
	"atpg/sat_escalations":      "atpg.sat_escalations",
	"atpg/sat_conflicts":        "atpg.sat_conflicts",
	"atpg/tests_kept":           "atpg.tests_kept",
	"atpg/static_proven":        "implic.static_proven",
	"faultsim/sim_blocks":       "faultsim.sim_blocks",
	"faultsim/detect_words":     "faultsim.detect_words",
	"fcache/lookups":            "fcache.lookups",
}

// tracedRun is one set-up and pass under an obs.Tracer on Env.Obs and an
// obs.Ledger on Env.Ledger.
type tracedRun struct {
	tr     *obs.Tracer
	ledger []byte
	counts map[string]float64
	setupS float64 // the traced set-up
	passS  float64 // the traced pass's timed operations
}

// runTraced sets up and runs one pass under the tracer, checking each
// operation with v.
func runTraced(w workload, v *verifier, name string) (*tracedRun, error) {
	t := &tracedRun{tr: obs.New(), counts: map[string]float64{}}
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	runtime.GC()
	t0 := time.Now()
	sp := obs.Start(t.tr, "bench/setup", obs.String("workload", name))
	err := w.setup(t.tr, led)
	sp.End()
	t.setupS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	sp = obs.Start(t.tr, "bench/pass", obs.String("workload", name))
	t.passS, _ = runPass(w, v, t.counts, false)
	sp.End()
	if err := led.Close(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	t.ledger = buf.Bytes()
	return t, nil
}

// layerValues derives the per-layer metrics, except obs.overhead_frac,
// from the run's spans, counters, ledger and results.
func (t *tracedRun) layerValues(w workload) (map[string]float64, error) {
	vals := map[string]float64{}
	spans, err := spansOf(t.tr)
	if err != nil {
		return nil, err
	}
	// The checks run inside the pass span but outside every operation, so
	// the traced interval is the set-up plus the operations' timed seconds.
	var attributed float64
	for i, self := range selfTimes(spans) {
		s := spans[i]
		dur := s.Dur / 1e6
		if b, ok := selfBuckets[s.Name]; ok {
			vals[b] += self
			attributed += self
		}
		switch s.Name {
		case "bench/resyn.Run":
			vals["resyn.run_s."+s.Args["circuit"]] += dur
		case "flow/uint_screen":
			vals["flow.uint_screen_s"] += dur
			vals["flow.uint_screens"]++
		case "flow/verify_faults":
			vals["flow.signoff_s"] += dur
		}
	}
	vals["obs.unattributed_s"] = t.setupS + t.passS - attributed
	snap := t.tr.Registry().Snapshot()
	for counter, m := range counterMetrics {
		vals[m] = float64(snap.Counters[counter])
	}
	if n := snap.Counters["route/nets_reused"] + snap.Counters["route/nets_rerouted"]; n > 0 {
		vals["route.reuse_frac"] = float64(snap.Counters["route/nets_reused"]) / float64(n)
	}
	if n := snap.Counters["fcache/lookups"]; n > 0 {
		vals["fcache.hit_frac"] = float64(snap.Counters["fcache/hits"]) / float64(n)
	}
	for m, c := range t.counts {
		vals[m] = c
	}
	ls, err := readLedger(t.ledger)
	if err != nil {
		return nil, err
	}
	vals["atpg.search_s.podem"] = ls.podemS
	vals["atpg.search_s.sat"] = ls.satS
	if ls.allBT > 0 {
		vals["atpg.limit_waste_frac"] = float64(ls.satBT) / float64(ls.allBT)
	}
	for _, c := range w.circuits() {
		if implic.New(c) == nil {
			vals["implic.off_circuits"]++
		}
	}
	return vals, nil
}

// traceSpan is one span of the tracer's Chrome trace export.
type traceSpan struct {
	Name string            `json:"name"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// spansOf exports the tracer's spans in start order.
func spansOf(tr *obs.Tracer) ([]traceSpan, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	var tf struct {
		TraceEvents []traceSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	return tf.TraceEvents, nil
}

// selfTimes returns each span's self time in seconds: its duration minus
// the durations of its direct children. All spans come from one
// coordinating goroutine, so they nest strictly and the parent of a span
// is the innermost earlier span still open when it starts.
func selfTimes(spans []traceSpan) []float64 {
	// Clock readings are at least nanoseconds apart; the tolerance only
	// absorbs the float rounding of the microsecond export.
	const eps = 1e-4
	self := make([]float64, len(spans))
	var stack []int
	for i, s := range spans {
		self[i] += s.Dur
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if s.Ts < top.Ts+top.Dur-eps {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.Dur
		}
		stack = append(stack, i)
	}
	for i := range self {
		self[i] /= 1e6
	}
	return self
}

// ledgerStats are the verdict-level figures of the flight-recorder ledger.
type ledgerStats struct {
	podemS, satS float64
	satBT, allBT int64
	verdicts     int
}

// readLedger sums verdict search time by deciding tier and the backtracks
// PODEM spent on faults that ended in the SAT tier.
func readLedger(data []byte) (ledgerStats, error) {
	recs, err := obs.ReadLedger(bytes.NewReader(data))
	if err != nil {
		return ledgerStats{}, fmt.Errorf("read ledger: %w", err)
	}
	var st ledgerStats
	for _, r := range recs {
		if r.T != "verdict" {
			continue
		}
		st.allBT += int64(r.BT)
		switch r.Tier {
		case obs.TierPodem:
			st.podemS += float64(r.Micros) / 1e6
		case obs.TierSAT, obs.TierSATMemo:
			st.satS += float64(r.Micros) / 1e6
			st.satBT += int64(r.BT)
		}
	}
	return st, nil
}
