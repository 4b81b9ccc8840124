package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/faults"
	"desync/internal/lint"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/sta"
	"desync/internal/stdcells"
	"desync/internal/twophase"
	"desync/internal/verilog"
)

// span is one timed call. Spans live in memory until the run ends.
type span struct {
	name       string
	op, parent int // parent is an index into recorder.spans, -1 for a root
	start, end time.Duration
}

// recorder keeps the spans of the traced run, nested by a call stack.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func (r *recorder) begin(name string) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.t0)})
	r.stack = append(r.stack, len(r.spans)-1)
}

func (r *recorder) end() {
	n := len(r.stack) - 1
	r.spans[r.stack[n]].end = time.Since(r.t0)
	r.stack = r.stack[:n]
}

func (r *recorder) do(name string, f func()) {
	r.begin(name)
	defer r.end()
	f()
}

// selfTimes returns each span's duration minus the part its children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread row per op), the format Perfetto and chrome://tracing
// open directly.
func (r *recorder) writeChrome(path string, opNames []string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(r.spans)+len(opNames))
	for i, name := range opNames {
		evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": name}})
	}
	for i, s := range r.spans {
		args := map[string]any{"span": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		evs = append(evs, event{Name: s.name, Ph: "X", Pid: 1, Tid: s.op + 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceOp is one drdesync invocation, described by the flags it would get.
type traceOp struct {
	ID      string  `json:"id"`
	Gen     string  `json:"gen,omitempty"`
	In      string  `json:"in,omitempty"`
	Lib     string  `json:"lib"`
	Backend string  `json:"backend"`
	Period  float64 `json:"period,omitempty"`
	Equiv   bool    `json:"equiv,omitempty"`
	Faults  bool    `json:"faults,omitempty"`
}

type traceReq struct {
	Ops []traceOp `json:"ops"`
	// Dir receives each op's netlist and SDC, as drdesync would write them.
	Dir string `json:"dir"`
	// Trace is the Chrome trace-event output path.
	Trace string `json:"trace"`
}

type opResult struct {
	ID    string  `json:"id"`
	OK    bool    `json:"ok"`
	Err   string  `json:"err,omitempty"`
	WallS float64 `json:"wall_s"`
}

type traceOut struct {
	Ops []opResult `json:"ops"`
	// Self maps a span name to its summed self time in seconds.
	Self map[string]float64 `json:"self"`
	// Counts are per-layer work counters summed over the ops.
	Counts map[string]float64 `json:"counts"`
}

// runtimeSample reads the allocation, GC-cycle and GC-CPU counters whose
// per-op deltas the trace reports.
type runtimeSample struct{ allocBytes, gcCycles, gcCPU float64 }

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func trace(raw []byte) (any, error) {
	var req traceReq
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	rec := &recorder{t0: time.Now()}
	out := traceOut{Self: map[string]float64{}, Counts: map[string]float64{}}
	var opNames []string
	for i, op := range req.Ops {
		rec.op = i
		opNames = append(opNames, op.ID)
		runtime.GC()
		before := readRuntime()
		t0 := time.Now()
		rec.begin("op")
		text, cons, err := runOp(rec, op, req.Dir, out.Counts)
		rec.end()
		wall := time.Since(t0).Seconds()
		after := readRuntime()
		out.Counts["runtime.alloc_mb"] += (after.allocBytes - before.allocBytes) / (1 << 20)
		out.Counts["runtime.gc_cycles"] += after.gcCycles - before.gcCycles
		out.Counts["runtime.gc_cpu_s"] += after.gcCPU - before.gcCPU
		res := opResult{ID: op.ID, OK: err == nil, WallS: wall}
		if err != nil {
			res.Err = err.Error()
		} else if err := kernels(rec, op, text, cons); err != nil {
			res.OK, res.Err = false, "kernels: "+err.Error()
		}
		out.Ops = append(out.Ops, res)
	}
	for i, d := range rec.selfTimes() {
		out.Self[rec.spans[i].name] += d.Seconds()
	}
	return out, rec.writeChrome(req.Trace, opNames)
}

// runOp mirrors cmd/drdesync's run for one op: build or read the input,
// pre-import lint, core.Convert with the per-stage lint callback, the
// backend's post-export gates, then the Verilog and SDC exports. Every
// layer call sits in its own span; the core stages are spans opened and
// closed by the flow's Progress callback. It returns the written netlist
// and the constraints exported with it.
func runOp(rec *recorder, op traceOp, dir string, counts map[string]float64) (string, *sdc.Constraints, error) {
	ctx := context.Background()
	lib, err := stdcells.NewChecked(stdcells.Variant(op.Lib))
	if err != nil {
		return "", nil, err
	}
	var d *netlist.Design
	if op.Gen != "" {
		rec.do("designs.build", func() { d, err = designs.ParseSpec(op.Gen, lib) })
	} else {
		var src []byte
		if src, err = os.ReadFile(op.In); err != nil {
			return "", nil, err
		}
		rec.do("verilog.read", func() { d, err = verilog.Read(string(src), lib, "") })
	}
	if err != nil {
		return "", nil, err
	}
	var pre *lint.Report
	rec.do("lint.pre", func() { pre = lint.CheckDesign(d, lint.Options{}) })
	counts["lint.findings"] += float64(len(pre.Findings))
	if n := pre.Errors(); n > 0 {
		return "", nil, fmt.Errorf("pre-import lint: %d error(s)", n)
	}

	stageOpen := false
	closeStage := func() {
		if stageOpen {
			rec.end()
			stageOpen = false
		}
	}
	opts := core.Options{
		Backend:      op.Backend,
		Period:       op.Period,
		Margin:       1.15,
		ManualGroups: designs.PreGrouped(op.Gen),
		Progress: func(stage string) {
			closeStage()
			name := "core." + stage
			switch stage {
			case core.StageSubstitute, core.StageSize, core.StageGenerate:
				name = "core." + op.Backend + "." + stage
			}
			rec.begin(name)
			stageOpen = true
		},
		StageCheck: func(stage string, midFlow bool) error {
			var rep *lint.Report
			rec.do("lint.stagecheck", func() { rep = lint.Check(d.Top, lint.Options{MidFlow: midFlow}) })
			counts["lint.findings"] += float64(len(rep.Findings))
			if n := rep.Errors(); n > 0 {
				return fmt.Errorf("lint: %d error(s), first: %s", n, rep.Findings[0])
			}
			return nil
		},
	}
	res, err := core.Convert(ctx, d, opts)
	closeStage()
	if err != nil {
		return "", nil, err
	}
	if len(res.UnderMargin) > 0 {
		return "", nil, fmt.Errorf("regions %v under margin; drdesync would retry", res.UnderMargin)
	}
	counts["core.regions"] += float64(res.Grouping.Groups)
	counts["core.ffs"] += float64(res.Substitution.FFs)
	counts["core.insts_out"] += float64(len(d.Top.Insts))
	if res.Insert != nil {
		counts["core.delay_cells"] += float64(res.Insert.DelayCells)
	}

	switch res.Backend {
	case core.BackendDesync:
		if err := desyncGates(ctx, rec, d, res, op, counts); err != nil {
			return "", nil, err
		}
	case core.BackendTwoPhase:
		if _, ok := res.BackendResult.(*twophase.Result); !ok {
			return "", nil, fmt.Errorf("twophase backend returned %T", res.BackendResult)
		}
		var rep *lint.Report
		rec.do("lint.post", func() {
			rep = lint.Check(d.Top, lint.Options{TwoPhase: true, Constraints: res.Constraints})
		})
		counts["lint.findings"] += float64(len(rep.Findings))
		if n := rep.Errors(); n > 0 {
			return "", nil, fmt.Errorf("post-export lint: %d error(s)", n)
		}
	default:
		return "", nil, fmt.Errorf("no gate pipeline for backend %q", res.Backend)
	}

	var text, sdcText string
	rec.do("verilog.write", func() { text = verilog.Write(d) })
	counts["verilog.bytes"] += float64(len(text))
	rec.do("sdc.write", func() { sdcText = res.Constraints.Write() })
	base := dir + "/" + strings.NewReplacer("/", "_", ":", "_", ",", "_", "=", "_").Replace(op.ID)
	if err := os.WriteFile(base+".v", []byte(text), 0o644); err != nil {
		return "", nil, err
	}
	return text, res.Constraints, os.WriteFile(base+".sdc", []byte(sdcText), 0o644)
}

// desyncGates mirrors cmd/drdesync's desync gate pipeline: post-export DS-*
// lint, the always-on static marked-graph gate, the optional exhaustive
// equiv gate and the optional fault campaign.
func desyncGates(ctx context.Context, rec *recorder, d *netlist.Design, res *core.Result, op traceOp, counts map[string]float64) error {
	var rep *lint.Report
	rec.do("lint.post", func() {
		rep = lint.Check(d.Top, lint.Options{Desync: true, Constraints: res.Constraints, Network: res.Network})
	})
	counts["lint.findings"] += float64(len(rep.Findings))
	if n := rep.Errors(); n > 0 {
		return fmt.Errorf("post-export lint: %d error(s)", n)
	}

	var srep *mga.Report
	var err error
	rec.do("mga.analyze", func() { srep, err = mga.Analyze(d.Top, res.Network, mga.Options{}) })
	if err != nil {
		return err
	}
	counts["mga.places"] += float64(srep.PlaceCount)
	if n := srep.LintReport(srep.ModelFindings).Errors(); n > 0 {
		return fmt.Errorf("static gate: %d error(s)", n)
	}

	if op.Equiv && mga.StateEstimate(srep.Regions) <= equiv.DefaultMaxStates {
		var eres *equiv.Result
		rec.do("equiv.explore", func() {
			var m *equiv.Model
			if m, err = equiv.FromNetwork(d.Top, res.Network); err == nil {
				eres, err = m.Explore(ctx, equiv.ExploreOptions{})
			}
		})
		if err != nil {
			return err
		}
		counts["equiv.markings"] += float64(eres.States)
	}

	if op.Faults {
		var frep *faults.Report
		var n int
		rec.do("faults.campaign", func() {
			period := op.Period
			var c *faults.Campaign
			c, err = faults.NewCampaign(ctx, d.Top, faults.Config{
				Stimulus:      faults.ResetStimulus(d.Top, 0),
				Horizon:       2 + period*12*6,
				QuiescenceGap: 8 * period,
				SetupGuard:    true,
			})
			if err != nil {
				return
			}
			list := append(c.DelayFaults(40, 2), c.ControlStuckFaults()...)
			n = len(list)
			frep, err = c.Run(ctx, list)
		})
		if err != nil {
			return err
		}
		det, _ := frep.Detected("")
		counts["faults.injected"] += float64(n)
		counts["faults.detected"] += float64(det)
	}
	return nil
}

// kernels times the standalone kernels on the op's output, re-read from the
// written bytes so no memoized state carries over: full Validate, the
// content hash the server's cache key uses, control-network derivation, and
// the STA graph build and region-delay pass, under the exported
// loop-breaking constraints as the DS-MARGIN lint rule sets them up.
func kernels(rec *recorder, op traceOp, text string, cons *sdc.Constraints) error {
	rec.begin("kernels")
	defer rec.end()
	lib := stdcells.New(stdcells.Variant(op.Lib))
	var d *netlist.Design
	var err error
	rec.do("check.reread", func() { d, err = verilog.Read(text, lib, "") })
	if err != nil {
		return err
	}
	var verrs []netlist.ValidationError
	rec.do("netlist.validate", func() { verrs = d.Top.Validate(netlist.ValidateOptions{}) })
	if len(verrs) > 0 {
		return fmt.Errorf("output does not validate: %v", verrs[0])
	}
	rec.do("netlist.hash", func() { d.ContentHash() })
	// Derive before the region-delay pass: on a re-read netlist it restores
	// each latch's region tag, which region-aware timing needs.
	rec.do("ctrlnet.derive", func() { ctrlnet.Derive(d.Top) })
	staOpts := sta.Options{Corner: netlist.Worst, AutoBreakLoops: true, Disabled: map[sta.ArcKey]bool{}}
	for _, da := range cons.Disabled {
		staOpts.Disabled[sta.ArcKey{Inst: da.Inst, From: da.From, To: da.To}] = true
	}
	rec.do("sta.build", func() { _, err = sta.Build(d.Top, staOpts) })
	if err != nil {
		return err
	}
	rec.do("sta.region_delays", func() {
		_, err = sta.RegionDelays(context.Background(), d.Top, netlist.Worst, staOpts)
	})
	return err
}
