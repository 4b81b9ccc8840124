package gates

import (
	"context"
	"errors"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// inputRegsOnly is a design the automatic grouping rejects: its only
// flip-flops register primary inputs directly (no combinational cloud), so
// every sequential element lands in group 0 and no region exists.
const inputRegsOnly = `
module m (clk, rstn, a, b, qa, qb);
  input clk, rstn, a, b;
  output qa, qb;
  DFFRQX1 ra (.D(a), .CK(clk), .RN(rstn), .Q(qa));
  DFFRQX1 rb (.D(b), .CK(clk), .RN(rstn), .Q(qb));
endmodule
`

func buildFrom(src string) Build {
	return func(int) (*netlist.Design, error) {
		return verilog.Read(src, stdcells.New(stdcells.HighSpeed), "")
	}
}

var dlxSrcCache string

func dlxSource(t *testing.T) string {
	t.Helper()
	if dlxSrcCache == "" {
		d, err := designs.BuildDLX(stdcells.New(stdcells.HighSpeed), designs.TestProgram())
		if err != nil {
			t.Fatal(err)
		}
		dlxSrcCache = verilog.Write(d)
	}
	return dlxSrcCache
}

// notes joins the messages of every note the run logged.
func notes(rep *Report) string {
	var b strings.Builder
	for _, e := range rep.Events {
		if e.Kind == KindNote {
			b.WriteString(e.Msg + "\n")
		}
	}
	return b.String()
}

// TestFallbackSingleRegion: a grouping failure degrades to one region with
// a note instead of aborting the run.
func TestFallbackSingleRegion(t *testing.T) {
	// Direct flow attempt fails with the staged no-regions error.
	d, err := buildFrom(inputRegsOnly)(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Convert(context.Background(), d, core.Options{Period: 1})
	if !errors.Is(err, core.ErrNoRegions) {
		t.Fatalf("direct flow: err = %v, want ErrNoRegions", err)
	}
	if core.StageOf(err) != core.StageGroup {
		t.Fatalf("StageOf = %q, want %q", core.StageOf(err), core.StageGroup)
	}

	rep, err := Run(context.Background(), buildFrom(inputRegsOnly), Plan{Core: core.Options{Period: 1}})
	if err != nil {
		t.Fatalf("fallback flow failed: %v", err)
	}
	res := rep.Result
	if res.Grouping.Groups != 1 {
		t.Fatalf("fallback regions = %d, want 1", res.Grouping.Groups)
	}
	if !strings.Contains(notes(rep), "single region") {
		t.Fatalf("no fallback note, got %q", notes(rep))
	}
	if rep.Design.Top.Net("G1_mri") == nil {
		t.Fatal("fallback design has no region-1 handshake net")
	}
	// The degraded run still carries a derived control network whose
	// insert-stage claim cross-checks clean, exactly like a first-try run,
	// and it passed every post-export gate.
	assertCleanCtrlnet(t, res)
	if res.Network.ControlNet(1, "mri") == nil {
		t.Fatal("derived network does not resolve the region-1 master request")
	}
	if rep.Static == nil {
		t.Fatal("static gate did not run on the degraded design")
	}
}

// assertCleanCtrlnet checks a degraded result against the same
// claim/derivation contract the straight-through flow enforces: a network
// was derived, the flow shipped with an empty diff, and re-running the diff
// against the insert stage's claim stays empty.
func assertCleanCtrlnet(t *testing.T, res *core.Result) {
	t.Helper()
	if res.Network == nil || res.Network.Empty() {
		t.Fatal("result carries no derived control network")
	}
	if len(res.CtrlDiff) != 0 {
		t.Fatalf("flow shipped with claim/derivation mismatches: %v", res.CtrlDiff)
	}
	if ds := ctrlnet.Diff(res.Insert.Claim, res.Network); len(ds) != 0 {
		t.Fatalf("re-running the cross-check disagrees: %v", ds)
	}
}

// TestMarginAutoBump: an under-margin sizing result triggers a margin bump
// and retry rather than shipping an element that does not cover its region;
// once the retries are spent the run ships with its DS-MARGIN findings
// demoted to warnings.
func TestMarginAutoBump(t *testing.T) {
	rep, err := Run(context.Background(), buildFrom(dlxSource(t)),
		Plan{Core: core.Options{Period: 4.65, Margin: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(notes(rep), "under-cover") {
		t.Fatalf("no under-margin note, got %q", notes(rep))
	}
	res := rep.Result
	if len(res.UnderMargin) > 0 {
		// Three 15% bumps from 0.05 cannot reach 1.0; the run must still
		// finish and leave the advisory in place.
		if !strings.Contains(notes(rep), "retries") {
			t.Fatalf("missing final under-margin advisory, got %q", notes(rep))
		}
		margin := rep.Lint.ByRule(lint.RuleMargin)
		if len(margin) == 0 {
			t.Fatal("under-margin run has no DS-MARGIN findings")
		}
		for _, f := range margin {
			if f.Severity != lint.Warning {
				t.Fatalf("DS-MARGIN not demoted: %s", f)
			}
		}
	}
	// Under-margin delay elements degrade timing, not structure: the shipped
	// network's claim/derivation diff is as clean as a full-margin run's.
	assertCleanCtrlnet(t, res)
}

// TestNoDegradationOnCleanRun: a healthy design desynchronizes on the first
// attempt with no notes.
func TestNoDegradationOnCleanRun(t *testing.T) {
	rep, err := Run(context.Background(), buildFrom(dlxSource(t)),
		Plan{Core: core.Options{Period: 4.65}})
	if err != nil {
		t.Fatal(err)
	}
	if n := notes(rep); n != "" {
		t.Fatalf("unexpected notes: %q", n)
	}
	if rep.Result.Grouping.Groups < 2 {
		t.Fatalf("DLX regions = %d, want several", rep.Result.Grouping.Groups)
	}
}

// TestEquivGateFailsBrokenNetwork feeds the gate a control network with a
// cut acknowledge and checks the failure carries the equiv flow stage and
// names the violated property.
func TestEquivGateFailsBrokenNetwork(t *testing.T) {
	f, err := expt.RunDLXFlow(expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ai := f.Desync.Top.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	f.Desync.Top.Disconnect(ai, "Z")

	rep := &Report{}
	err = equivGate(context.Background(), rep, f.Desync, ctrlnet.Derive(f.Desync.Top), Plan{})
	if err == nil {
		t.Fatal("equiv gate passed a deadlocking network")
	}
	if core.StageOf(err) != core.StageEquiv {
		t.Fatalf("stage = %q, want %q (err: %v)", core.StageOf(err), core.StageEquiv, err)
	}
	var named bool
	for _, e := range rep.Events {
		if e.Kind == KindFindings && e.Gate == GateEquiv && len(e.Findings.ByRule(equiv.RuleDeadlock)) > 0 {
			named = true
		}
	}
	if !named {
		t.Errorf("findings do not name %s: %+v", equiv.RuleDeadlock, rep.Events)
	}
	if rep.Equiv == nil || rep.Equiv.Violation == nil {
		t.Error("report carries no counterexample")
	}
}

// TestEquivReachUsesStaticRegionCount pins the equiv reach decision to the
// marked-graph region count, the network equiv explores. On FIR the static
// analysis sees 3 control regions where grouping made 2, so a budget that
// covers 2 regions but not 3 must skip the exhaustive gate with a note.
func TestEquivReachUsesStaticRegionCount(t *testing.T) {
	rep, err := Run(context.Background(), func(int) (*netlist.Design, error) {
		return designs.BuildFIR(stdcells.New(stdcells.HighSpeed))
	}, Plan{Core: core.Options{Period: 6.0}, Equiv: true, EquivMaxStates: 64})
	if err != nil {
		t.Fatal(err)
	}
	if g, r := rep.Result.Grouping.Groups, rep.Static.Regions; g != 2 || r != 3 {
		t.Fatalf("FIR groups %d, static regions %d; want 2 and 3", g, r)
	}
	if rep.Equiv != nil {
		t.Fatal("equiv ran past the 3-region estimate")
	}
	if !strings.Contains(notes(rep), "3-region state estimate 512 exceeds the 64-marking equiv budget") {
		t.Fatalf("no reach note, got %q", notes(rep))
	}
}
