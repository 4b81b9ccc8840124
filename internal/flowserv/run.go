package flowserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"desync/internal/gates"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/verilog"
)

// Artifact names served under /jobs/{id}/artifacts/. Every successful job
// has the first three plus result.json; equiv.json and faults.json appear
// when their gates were requested.
const (
	ArtifactNetlist     = "netlist.v"
	ArtifactConstraints = "constraints.sdc"
	ArtifactLint        = "lint.json"
	ArtifactStatic      = "static.json"
	ArtifactEquiv       = "equiv.json"
	ArtifactFaults      = "faults.json"
	ArtifactResult      = "result.json"
)

// Summary is result.json: what the run produced, in one stable record.
type Summary struct {
	Design      string      `json:"design"`
	Gen         string      `json:"gen,omitempty"`
	Lib         string      `json:"lib"`
	CacheKey    string      `json:"cacheKey"`
	Options     FlowOptions `json:"options"`
	Period      float64     `json:"period"`
	Regions     int         `json:"regions"`
	Cleaned     int         `json:"cleanedCells"`
	FFs         int         `json:"ffsSubstituted"`
	Controllers int         `json:"controllers"`
	DelayCells  int         `json:"delayCells"`
	UnderMargin []int       `json:"underMargin,omitempty"`
	LintErrors  int         `json:"lintErrors"`
	StaticOK    bool        `json:"staticOK"`
	EquivRan    bool        `json:"equivRan"`
	EquivNote   string      `json:"equivNote,omitempty"`
	FaultsRan   bool        `json:"faultsRan"`
	Artifacts   []string    `json:"artifacts"`
}

// runGuarded executes one job's flow with the package's single panic
// quarantine: a panic escaping any kernel (malformed upload driving a
// builder guard, an internal invariant breach) fails that job, never the
// server. The boundary mirrors internal/sweep's runQuarantined and is
// audited in cmd/repolint's recover allowlist.
func runGuarded(ctx context.Context, j *job, jobParallelism int) (arts map[string][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flow panic (quarantined): %v", r)
		}
	}()
	return runFlow(ctx, j, jobParallelism)
}

// testStageHook, when non-nil, is invoked on every stage transition after
// the progress event is recorded. Tests use it to hold a job in flight
// deterministically: the flow on the small generated inputs is far too fast
// to race HTTP cancel/drain requests against.
var testStageHook func(ctx context.Context, stage string)

// runFlow drives one job through the gate pipeline (internal/gates) with
// per-stage progress events and a gate event as each gate passes, then
// exports the artifacts. It returns the artifacts produced so far even on
// failure, so a tripped gate stays diagnosable over HTTP.
func runFlow(ctx context.Context, j *job, jobParallelism int) (map[string][]byte, error) {
	arts := map[string][]byte{}
	// Submit-time validation already canonicalized once; a failure here
	// would mean the request mutated in flight.
	opts, err := j.req.Options.Canonicalize()
	if err != nil {
		return arts, fmt.Errorf("options: %w", err)
	}
	canonical := opts
	opts.Parallelism = jobParallelism
	co := opts.coreOptions()
	co.Progress = func(stage string) {
		j.setStage(stage)
		if testStageHook != nil {
			testStageHook(ctx, stage)
		}
	}

	// The first attempt converts the design submit already built for the
	// cache key; only a degraded retry rebuilds it from the request.
	rep, err := gates.Run(ctx, func(attempt int) (*netlist.Design, error) {
		if attempt == 0 {
			return j.design, nil
		}
		return j.req.buildDesign()
	}, gates.Plan{
		Core:            co,
		Period:          func(d *netlist.Design) (float64, error) { return derivePeriod(ctx, d.Top) },
		Equiv:           opts.Equiv,
		EquivMaxStates:  opts.EquivMaxStates,
		Faults:          opts.Faults,
		FaultCycles:     opts.FaultCycles,
		FaultsPerRegion: opts.FaultsPerRegion,
		OnEvent: func(e gates.Event) {
			switch {
			case e.Kind == gates.KindNote:
				j.event("note", e.Gate, e.Msg)
			case e.Kind == gates.KindPass && e.Gate == gates.GatePostExport:
				j.event("gate", "lint", e.Msg)
			case e.Kind == gates.KindPass:
				j.event("gate", e.Gate, e.Msg)
			}
		},
	})
	attach := func(name string, write func(io.Writer) error) {
		var b bytes.Buffer
		if write(&b) == nil {
			arts[name] = b.Bytes()
		}
	}
	if rep.Lint != nil {
		if lj, err := rep.Lint.JSON(); err == nil {
			arts[ArtifactLint] = lj
		}
	}
	if rep.Static != nil {
		attach(ArtifactStatic, rep.Static.WriteJSON)
	}
	if rep.Equiv != nil {
		attach(ArtifactEquiv, rep.Equiv.WriteJSON)
	}
	if rep.Faults != nil {
		attach(ArtifactFaults, rep.Faults.WriteJSON)
	}
	if err != nil {
		return arts, err
	}

	// Gates that do not apply say so instead of silently passing.
	d, res := rep.Design, rep.Result
	if rep.Static == nil {
		j.event("note", "static", "marked-graph gates model the handshake control network; not applicable to the "+res.Backend+" backend")
	}
	if (j.req.Options.Equiv && !opts.Equiv) || (j.req.Options.Faults && !opts.Faults) {
		j.event("note", "gates", "equiv and faults gates are desync-only; dropped at canonicalization")
	}

	arts[ArtifactNetlist] = []byte(verilog.Write(d))
	arts[ArtifactConstraints] = []byte(res.Constraints.Write())
	sum := Summary{
		Design: d.Top.Name, Gen: j.req.Gen, Lib: j.req.Lib,
		CacheKey: j.key, Options: canonical,
		Period: rep.Period, Regions: res.Grouping.Groups,
		Cleaned: res.CleanedCells, FFs: res.Substitution.FFs,
		UnderMargin: res.UnderMargin, LintErrors: rep.Lint.Errors(),
		StaticOK: rep.Static != nil, EquivRan: rep.Equiv != nil,
		FaultsRan: rep.Faults != nil,
	}
	for _, e := range rep.Events {
		if e.Kind == gates.KindNote && e.Gate == gates.GateEquiv {
			sum.EquivNote = e.Msg
		}
	}
	if res.Insert != nil {
		sum.Controllers = res.Insert.Controllers
		sum.DelayCells = res.Insert.DelayCells
	}
	sum.Artifacts = artifactNames(arts)
	// result.json names itself in the artifact list.
	sum.Artifacts = append(sum.Artifacts, ArtifactResult)
	sj, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return arts, err
	}
	arts[ArtifactResult] = append(sj, '\n')
	for _, name := range sum.Artifacts {
		j.event("artifact", "", name)
	}
	return arts, nil
}

// derivePeriod measures the input design's synchronous clock period the way
// the experiment flows do: the worst launch-to-capture budget over all
// regions at the worst corner, with a 5% clock margin. It runs once the
// input has passed the pre-import gate.
func derivePeriod(ctx context.Context, m *netlist.Module) (float64, error) {
	rds, err := sta.RegionDelays(ctx, m, netlist.Worst, sta.Options{})
	if err != nil {
		return 0, fmt.Errorf("deriving a period from STA: %w (pass options.period)", err)
	}
	p := sta.WorstBudget(rds)
	if p <= 0 {
		return 0, fmt.Errorf("deriving a period from STA: no launch-to-capture budgets found (pass options.period)")
	}
	return p * 1.05, nil
}
