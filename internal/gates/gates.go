// Package gates is the one gate pipeline behind every entry point that
// turns a synchronous netlist into a verified converted one (drdesync,
// drserve): the pre-import lint gate, core.Convert with the per-stage lint
// gate, the degradation loop, and the post-export gates picked by backend.
// Run owns the whole sequence and its policy; callers only build the input
// design, choose a Plan and render the Report, so the same input and
// options give the same verdict whichever entry point runs them.
//
// The gates that differ by backend are declared in one switch, in
// postExport (core.Backend cannot carry them: lint imports core and the
// backends):
//
//   - desync: the DS-* lint family, the always-on static marked-graph gate
//     (internal/mga), the optional exhaustive equiv gate when the state
//     estimate is within its marking budget, and the optional fault
//     campaign;
//   - twophase: the TP-* lint family. The marked-graph, equiv and faults
//     gates model handshake controllers, which this backend does not
//     insert, so a request for them becomes a note instead of a silent pass.
package gates

import (
	"context"
	"errors"
	"fmt"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/faults"
	"desync/internal/lint"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/sta"
	_ "desync/internal/twophase" // registers the twophase backend with the core flow
)

// Gate names, as they appear in Event.Gate.
const (
	GatePreImport  = "pre-import"
	GatePostExport = "post-export"
	GateStatic     = "static"
	GateEquiv      = "equiv"
	GateFaults     = "faults"
)

// Event kinds.
const (
	// KindFindings carries a gate's lint-style findings, logged whether or
	// not the gate passed.
	KindFindings = "findings"
	// KindPass records a gate that passed; Msg is its verdict.
	KindPass = "pass"
	// KindNote records a degradation applied, a gate skipped or a bound
	// hit; Msg says which.
	KindNote = "note"
)

// Event is one entry of a run's log, in the order it happened.
type Event struct {
	Kind string
	// Gate is a Gate* name, or the core stage a degradation note is about.
	Gate     string
	Msg      string
	Findings *lint.Report // KindFindings only
}

// maxMarginRetries bounds the under-margin auto-bump loop.
const maxMarginRetries = 3

// Build returns a fresh input design for one attempt (0 first). Convert
// mutates the design in place, so every degraded retry starts from a new
// build of the same input.
type Build func(attempt int) (*netlist.Design, error)

// Plan is the run's configuration besides the input design.
type Plan struct {
	// Core configures core.Convert. Run installs its own StageCheck and
	// overrides Margin on a margin-bump retry; Progress is passed through.
	Core core.Options
	// Period, when set and Core.Period is 0, derives the conversion period
	// from the input design once it has passed the pre-import gate. When
	// nil a zero period goes to Convert as is.
	Period func(d *netlist.Design) (float64, error)
	// SimplifyNames rewrites escaped names as simple identifiers after the
	// pre-import gate (§3.2.1).
	SimplifyNames bool
	// Equiv runs the exhaustive gate when the state estimate is within
	// EquivMaxStates markings (0: equiv.DefaultMaxStates). EquivXval > 0
	// cross-validates the model against that many randomized simulator
	// traces drawn from EquivSeed.
	Equiv          bool
	EquivMaxStates int
	EquivXval      int
	EquivSeed      int64
	// Faults runs the default delay and control stuck-at fault campaign:
	// FaultCycles clock periods long (0: 12), FaultsPerRegion delay faults
	// per region (0: 2).
	Faults          bool
	FaultCycles     int
	FaultsPerRegion int
	// OnEvent, when set, sees every Event as it is logged, so a caller can
	// report each gate as it finishes.
	OnEvent func(Event)
}

// Report is what one run produced. Run returns it on failure too, filled
// up to the gate that stopped the run, so a tripped gate stays diagnosable.
type Report struct {
	// Design is the converted design of the last attempt.
	Design *netlist.Design
	// Period is the period handed to Convert (0: the backend derived its
	// own from the region budgets).
	Period float64
	// Renamed counts the names SimplifyNames rewrote.
	Renamed int
	Result  *core.Result
	// Lint is the post-export lint report, Static the marked-graph
	// analysis, Equiv the exhaustive exploration and Faults the campaign;
	// each is nil when its gate did not run.
	Lint   *lint.Report
	Static *mga.Report
	Equiv  *equiv.Result
	Faults *faults.Report
	// Events is the run's log in order.
	Events []Event

	onEvent func(Event)
}

func (r *Report) emit(e Event) {
	r.Events = append(r.Events, e)
	if r.onEvent != nil {
		r.onEvent(e)
	}
}

func (r *Report) note(gate, msg string) { r.emit(Event{Kind: KindNote, Gate: gate, Msg: msg}) }

// gate logs a gate's findings and fails when any Error-severity finding
// survives; otherwise it logs the pass verdict.
func (r *Report) gate(name, verdict string, rep *lint.Report) error {
	r.emit(Event{Kind: KindFindings, Gate: name, Findings: rep})
	if n := rep.Errors(); n > 0 {
		for _, f := range rep.Findings {
			if f.Severity == lint.Error {
				return fmt.Errorf("%s lint gate failed with %d error(s), first: %s", name, n, f)
			}
		}
	}
	r.emit(Event{Kind: KindPass, Gate: name, Msg: verdict})
	return nil
}

// Run drives one input through the whole gate pipeline:
//
//  1. the pre-import lint gate, then Plan.Period and Plan.SimplifyNames;
//  2. core.Convert with the per-stage lint gate;
//  3. the degradation loop: when grouping finds no regions the run retries
//     as a single region (the ARM-style fallback of §5.3), and when a sized
//     delay element under-covers its region the margin is bumped 15% and
//     the run retried, up to three times; a run that still ships under
//     margin demotes its DS-MARGIN findings to warnings, because the note
//     already states the degradation;
//  4. the post-export gates of the backend that ran.
//
// The static and equiv gates fail with staged core.FlowErrors; Convert's
// own failures come back untouched.
func Run(ctx context.Context, build Build, plan Plan) (*Report, error) {
	r := &Report{Period: plan.Core.Period, onEvent: plan.OnEvent}
	par := plan.Core.Parallelism
	margin := plan.Core.Margin
	singleRegion := false
	for attempt := 0; ; attempt++ {
		d, err := build(attempt)
		if err != nil {
			return r, err
		}
		if attempt == 0 {
			// Reject structurally broken inputs before the heavy pipeline
			// touches them; a retry rebuilds the same input.
			if err := r.gate(GatePreImport, "lint clean", lint.CheckDesign(d, lint.Options{Parallelism: par})); err != nil {
				return r, err
			}
			if r.Period == 0 && plan.Period != nil {
				if r.Period, err = plan.Period(d); err != nil {
					return r, err
				}
			}
		}
		if plan.SimplifyNames {
			r.Renamed = core.SimplifyNames(d.Top)
		}
		o := plan.Core
		o.Period, o.Margin = r.Period, margin
		if singleRegion {
			for _, in := range d.Top.Insts {
				in.Group = 1
			}
			o.ManualGroups = true
		}
		// Every netlist.Validate boundary also runs the static netlist
		// rules, so a stage that corrupts the structure is caught at its
		// own boundary, not at export.
		o.StageCheck = func(stage string, midFlow bool) error {
			rep := lint.Check(d.Top, lint.Options{MidFlow: midFlow, Parallelism: par})
			if n := rep.Errors(); n > 0 {
				return fmt.Errorf("lint: %d error(s), first: %s", n, rep.Findings[0])
			}
			return nil
		}
		res, err := core.Convert(ctx, d, o)
		switch {
		case err == nil && len(res.UnderMargin) > 0 && attempt < maxMarginRetries:
			bumped := margin
			if bumped == 0 {
				bumped = 1.15
			}
			bumped *= 1.15
			r.note(core.StageSize, fmt.Sprintf("warning: delay elements under-cover regions %v at margin %.3g; retrying with margin %.3g",
				res.UnderMargin, margin, bumped))
			margin = bumped
			continue
		case err == nil:
			if len(res.UnderMargin) > 0 {
				r.note(core.StageSize, fmt.Sprintf("warning: delay elements still under-cover regions %v after %d retries",
					res.UnderMargin, maxMarginRetries))
			}
			r.Design, r.Result = d, res
			return r, r.postExport(ctx, plan)
		case errors.Is(err, core.ErrNoRegions) && !singleRegion:
			r.note(core.StageGroup, fmt.Sprintf("warning: %v; falling back to a single region (§5.3)", err))
			singleRegion = true
			continue
		default:
			return r, err
		}
	}
}

// postExport runs the post-export gates of the backend that ran. The
// switch is the one place that says which gates each backend gets.
func (r *Report) postExport(ctx context.Context, plan Plan) error {
	d, res := r.Design, r.Result
	// Post-export lint, cross-checked against the constraints the run
	// generated.
	lopts := lint.Options{Constraints: res.Constraints, Parallelism: plan.Core.Parallelism}
	handshake := false
	switch res.Backend {
	case core.BackendDesync:
		// The DS-* family, reusing the control-network IR the flow derived;
		// the static, equiv and faults gates model that network.
		lopts.Desync, lopts.Network = true, res.Network
		handshake = true
	case core.BackendTwoPhase:
		// The TP-* family over the generated phase-clock constraints.
		lopts.TwoPhase = true
	default:
		return fmt.Errorf("no gate pipeline for backend %q", res.Backend)
	}
	r.Lint = lint.Check(d.Top, lopts)
	if len(res.UnderMargin) > 0 {
		for i := range r.Lint.Findings {
			if r.Lint.Findings[i].Rule == lint.RuleMargin {
				r.Lint.Findings[i].Severity = lint.Warning
			}
		}
	}
	if err := r.gate(GatePostExport, "post-export lint clean", r.Lint); err != nil {
		return err
	}
	if !handshake {
		// A requested handshake gate says why it did not run.
		skip := func(gate string, requested bool) {
			if requested {
				r.note(gate, "the "+gate+" gate models the handshake control network; not applicable to the "+res.Backend+" backend, skipped")
			}
		}
		skip(GateEquiv, plan.Equiv)
		skip(GateFaults, plan.Faults)
		return nil
	}
	if err := staticGate(r, d, res.Network); err != nil {
		return err
	}
	if plan.Equiv && withinReach(r, r.Static.Regions, plan.EquivMaxStates) {
		if err := equivGate(ctx, r, d, res.Network, plan); err != nil {
			return err
		}
	}
	if plan.Faults {
		return faultsGate(ctx, r, plan)
	}
	return nil
}

// staticGate is the always-on structural gate: liveness, place bounds, the
// request-vs-data cross-check and the static period bound of the inserted
// control network's delay-annotated marked graph, in polynomial time.
// Error findings fail the run with a StageStatic flow error.
func staticGate(r *Report, d *netlist.Design, cn *ctrlnet.Network) error {
	fail := func(err error) error {
		return &core.FlowError{Stage: core.StageStatic, Design: d.Top.Name, Detail: "static marked-graph gate", Err: err}
	}
	rep, err := mga.Analyze(d.Top, cn, mga.Options{})
	if err != nil {
		return fail(err)
	}
	r.Static = rep
	if err := r.gate(GateStatic, "liveness, safety and period verdicts clean", rep.LintReport(rep.ModelFindings)); err != nil {
		return fail(err)
	}
	return nil
}

// withinReach decides whether the equiv gate's marking budget covers the
// protocol state space of the given number of control regions. The count
// is the static analysis's, since that is the network equiv explores. Out
// of reach, the static verdicts stand alone and a note says so instead of
// a truncated search.
func withinReach(r *Report, regions, maxStates int) bool {
	budget := maxStates
	if budget <= 0 {
		budget = equiv.DefaultMaxStates
	}
	if est := mga.StateEstimate(regions); est > uint64(budget) {
		r.note(GateEquiv, fmt.Sprintf("%d-region state estimate %d exceeds the %d-marking equiv budget; "+
			"skipping the exhaustive gate — the static marked-graph verdicts stand alone", regions, est, budget))
		return false
	}
	return true
}

// equivGate compiles the control network into the token-marking model and
// model-checks deadlock-freedom, phase safety and flow equivalence. A
// disproved property fails the run with a StageEquiv flow error; the
// result, counterexample included, is in the report either way.
func equivGate(ctx context.Context, r *Report, d *netlist.Design, cn *ctrlnet.Network, plan Plan) error {
	fail := func(err error) error {
		return &core.FlowError{Stage: core.StageEquiv, Design: d.Top.Name, Detail: "formal verification gate", Err: err}
	}
	m, err := equiv.FromNetwork(d.Top, cn)
	if err != nil {
		return fail(err)
	}
	res, err := m.Explore(ctx, equiv.ExploreOptions{
		MaxStates: plan.EquivMaxStates, Parallelism: plan.Core.Parallelism,
	})
	if err != nil {
		return fail(err)
	}
	if plan.EquivXval > 0 && res.Violation == nil {
		if res.XVal, err = m.CrossValidate(ctx, d.Top, equiv.XValConfig{
			Traces: plan.EquivXval, Seed: plan.EquivSeed, Parallelism: plan.Core.Parallelism,
		}); err != nil {
			return fail(err)
		}
	}
	r.Equiv = res
	if err := r.gate(GateEquiv, "deadlock-freedom, phase safety and flow equivalence clean", res.Report(m.Findings)); err != nil {
		return fail(err)
	}
	if res.Truncated {
		r.note(GateEquiv, fmt.Sprintf("equiv gate truncated at %d markings; properties hold only up to this bound", res.States))
	}
	return nil
}

// faultsGate runs the default delay and control stuck-at fault campaign
// against the converted design. Escapes do not fail the run: the report is
// the product. The clock period is the run's, or else the worst region
// budget with a 5% clock margin.
func faultsGate(ctx context.Context, r *Report, plan Plan) error {
	period := r.Period
	if period <= 0 {
		period = sta.WorstBudget(r.Result.RegionDelays) * 1.05
	}
	if period <= 0 {
		return fmt.Errorf("fault campaign: no region budget to derive a period from")
	}
	cycles := plan.FaultCycles
	if cycles <= 0 {
		cycles = 12
	}
	perRegion := plan.FaultsPerRegion
	if perRegion <= 0 {
		perRegion = 2
	}
	top := r.Design.Top
	c, err := faults.NewCampaign(ctx, top, faults.Config{
		Stimulus:      faults.ResetStimulus(top, 0),
		Horizon:       2 + period*float64(cycles)*6,
		QuiescenceGap: 8 * period,
		SetupGuard:    true,
		Parallelism:   plan.Core.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("fault campaign: %w", err)
	}
	list := append(c.DelayFaults(40, perRegion), c.ControlStuckFaults()...)
	if r.Faults, err = c.Run(ctx, list); err != nil {
		return fmt.Errorf("fault campaign: %w", err)
	}
	r.emit(Event{Kind: KindPass, Gate: GateFaults, Msg: fmt.Sprintf("campaign ran %d faults", len(list))})
	return nil
}
