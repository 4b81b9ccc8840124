// Command drdesync is the desynchronization tool of the paper (§3.2): it
// reads a post-synthesis gate-level Verilog netlist, applies the
// desynchronization methodology — logic cleaning, automatic region
// creation, flip-flop substitution, dependency-graph construction, matched
// delay-element sizing and controller-network insertion — and writes the
// desynchronized netlist plus the backend timing constraints.
//
// Usage:
//
//	drdesync -in design.v [-top name] [-lib HS|LL] [-period 2.4] \
//	         [-mux] [-margin 1.15] [-falsepath net1,net2] [-manual-groups] \
//	         [-simplify-names] [-faults] [-j N] -out out.v [-sdc out.sdc] [-blif out.blif]
//	drdesync -gen pipeline:depth=32,width=64,regions=100 -out out.v [...]
//
// -gen desynchronizes a generated design instead of a file: a fixed case
// study (dlx, arm, fir) or a parametric spec in the designs.ParseSpec
// grammar. Pre-grouped generators (arm, the pipeline family) imply
// -manual-groups.
//
// When the automatic grouping finds no regions the tool degrades to a
// single-region desynchronization (the ARM-style fallback of §5.3) with a
// warning; when a sized delay element does not cover its region's budget
// the tool bumps the margin and retries. -faults runs a fault-injection
// campaign against the result and prints the detection report. -j bounds the
// workers of the parallel kernels — delay-element sizing, the -equiv gate,
// the -faults campaign — with 0 meaning all CPUs; every output is identical
// at any value. Ctrl-C cancels the run cleanly between stages.
//
// The gate sequence and its degradation policy are internal/gates', the
// same pipeline drserve runs. After export the tool always runs the static
// marked-graph gate
// (internal/mga): polynomial-time liveness, token-bound safety and a
// static period bound over the inserted control network, deterministic at
// any -j. The optional -equiv gate then explores the same extraction
// exhaustively; when the design's protocol-state estimate exceeds the
// -max-states reach, the static gate stands alone and the tool says so
// explicitly instead of truncating a search.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"desync/internal/blif"
	"desync/internal/cliutil"
	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/gates"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/twophase"
	"desync/internal/verilog"
)

type runOpts struct {
	in, gen, top, libVariant     string
	out, sdcOut, blifOut, tbOut  string
	falsePaths, backend          string
	period, margin               float64
	mux, manualGroups, simplify  bool
	skipClean, cdet              bool
	faults                       bool
	faultCycles, faultsPerRegion int
	equivGate                    bool
	equivMaxStates, equivXval    int
	equivSeed                    int64
	parallelism                  int
}

func main() {
	var o runOpts
	flag.StringVar(&o.in, "in", "", "input gate-level Verilog netlist (required unless -gen)")
	flag.StringVar(&o.gen, "gen", "", "desynchronize a generated design instead of a file: dlx, arm, fir, or a spec like pipeline:depth=8,width=32")
	flag.StringVar(&o.top, "top", "", "top module (default: auto-detect)")
	flag.StringVar(&o.libVariant, "lib", "HS", "technology library variant: HS or LL")
	flag.StringVar(&o.backend, "backend", "", "clocking-conversion backend: "+strings.Join(core.BackendNames(), " or ")+" (default desync)")
	flag.Float64Var(&o.period, "period", 0, "original clock period in ns for constraint generation")
	flag.BoolVar(&o.mux, "mux", false, "build 8-tap multiplexed delay elements (adds delsel[2:0] ports)")
	flag.Float64Var(&o.margin, "margin", 1.15, "delay-element sizing margin")
	flag.StringVar(&o.falsePaths, "falsepath", "", "comma-separated nets to ignore during grouping")
	flag.BoolVar(&o.manualGroups, "manual-groups", false, "keep hierarchy-derived regions instead of auto grouping")
	flag.BoolVar(&o.simplify, "simplify-names", false, "rewrite escaped names as simple identifiers first")
	flag.StringVar(&o.out, "out", "", "output Verilog netlist (required)")
	flag.StringVar(&o.sdcOut, "sdc", "", "output SDC constraints file")
	flag.StringVar(&o.blifOut, "blif", "", "output BLIF netlist (SIS export)")
	flag.BoolVar(&o.skipClean, "no-clean", false, "skip buffer/inverter-pair removal")
	flag.BoolVar(&o.cdet, "cdet", false, "use dual-rail completion detection instead of matched delay elements (§2.4.4)")
	flag.StringVar(&o.tbOut, "tb", "", "output a behavioural testbench skeleton (§4.8)")
	flag.BoolVar(&o.equivGate, "equiv", false, "model-check the inserted control network (deadlock, phase safety, flow equivalence)")
	flag.IntVar(&o.equivMaxStates, "equiv-max-states", 0, "marking budget for the -equiv gate (0: engine default)")
	flag.IntVar(&o.equivXval, "equiv-xval", 0, "cross-validate the -equiv model against N randomized simulator traces")
	cliutil.SeedVar(flag.CommandLine, &o.equivSeed, "equiv-seed", 1, "PRNG seed for -equiv-xval traces")
	cliutil.ParallelismVar(flag.CommandLine, &o.parallelism)
	flag.BoolVar(&o.faults, "faults", false, "run a fault-injection campaign on the desynchronized design")
	flag.IntVar(&o.faultCycles, "fault-cycles", 12, "campaign run length in clock periods")
	flag.IntVar(&o.faultsPerRegion, "faults-per-region", 2, "delay faults injected per region")
	flag.Parse()
	if (o.in == "") == (o.gen == "") || o.out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Construction panics (library misuse, malformed internal state) that
	// escape the error paths become one-line diagnostics, not stack traces:
	// the tool's contract with scripts driving it is exit codes and stderr.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "drdesync: internal error: %v\n", r)
			os.Exit(3)
		}
	}()
	interrupted, err := cliutil.RunDrained(func(ctx context.Context) error {
		return run(ctx, o)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "drdesync:", err)
		if interrupted {
			fmt.Fprintln(os.Stderr, "drdesync: interrupted; the flow drained at a stage boundary")
		} else if stage := core.StageOf(err); stage != "" {
			fmt.Fprintf(os.Stderr, "drdesync: failed during the %s stage\n", stage)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, o runOpts) error {
	variant := stdcells.Variant(o.libVariant)
	if _, err := stdcells.NewChecked(variant); err != nil {
		return err
	}

	var src []byte
	if o.in != "" {
		var err error
		if src, err = os.ReadFile(o.in); err != nil {
			return err
		}
	}
	var fps []string
	if o.falsePaths != "" {
		fps = strings.Split(o.falsePaths, ",")
	}
	var mode core.Mode
	if o.cdet {
		mode = core.ModeCompletion
	}
	rep, err := gates.Run(ctx, func(int) (*netlist.Design, error) {
		if o.gen != "" {
			return designs.ParseSpec(o.gen, stdcells.New(variant))
		}
		return verilog.Read(string(src), stdcells.New(variant), o.top)
	}, gates.Plan{
		Core: core.Options{
			Backend:    o.backend,
			Mode:       mode,
			Period:     o.period,
			Margin:     o.margin,
			MuxTaps:    o.mux,
			FalsePaths: fps,
			// Pre-grouped generators (arm, the pipeline family) bake their
			// region assignment into the instances.
			ManualGroups: o.manualGroups || designs.PreGrouped(o.gen),
			SkipClean:    o.skipClean,
			Parallelism:  o.parallelism,
		},
		SimplifyNames:   o.simplify,
		Equiv:           o.equivGate,
		EquivMaxStates:  o.equivMaxStates,
		EquivXval:       o.equivXval,
		EquivSeed:       o.equivSeed,
		Faults:          o.faults,
		FaultCycles:     o.faultCycles,
		FaultsPerRegion: o.faultsPerRegion,
		OnEvent:         func(e gates.Event) { logEvent(os.Stderr, e) },
	})
	writeReport(os.Stdout, rep, o)
	if err != nil {
		return err
	}
	d, res := rep.Design, rep.Result

	if err := os.WriteFile(o.out, []byte(verilog.Write(d)), 0o644); err != nil {
		return err
	}
	if o.sdcOut != "" {
		if err := os.WriteFile(o.sdcOut, []byte(res.Constraints.Write()), 0o644); err != nil {
			return err
		}
	}
	if o.tbOut != "" {
		if res.Insert == nil {
			fmt.Fprintf(os.Stderr, "drdesync: -tb drives the handshake reset protocol; not applicable to the %s backend, skipped\n", res.Backend)
		} else if err := os.WriteFile(o.tbOut, []byte(core.WriteTestbench(d, res, "", o.period)), 0o644); err != nil {
			return err
		}
	}
	if o.blifOut != "" {
		text, err := blif.Write(d.Top)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.blifOut, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// logEvent prints a gate's findings and the pipeline's notes to w as they
// happen; pass verdicts stay silent.
func logEvent(w io.Writer, e gates.Event) {
	switch e.Kind {
	case gates.KindFindings:
		if len(e.Findings.Findings) > 0 {
			fmt.Fprintf(w, "drdesync: %s lint:\n", e.Gate)
			for _, f := range e.Findings.Findings {
				fmt.Fprintf(w, "  %s\n", f)
			}
		}
	case gates.KindNote:
		fmt.Fprintf(w, "drdesync: %s\n", e.Msg)
	}
}

// writeReport prints the run's summary and the text reports of the gates
// that ran — as far as the run got when a gate stopped it.
func writeReport(w io.Writer, rep *gates.Report, o runOpts) {
	if res := rep.Result; res != nil {
		if o.simplify {
			fmt.Fprintf(w, "simplified %d names\n", rep.Renamed)
		}
		fmt.Fprintf(w, "cleaned %d buffering cells\n", res.CleanedCells)
		fmt.Fprintf(w, "regions: %d (+%d cells in group 0)\n", res.Grouping.Groups, res.Grouping.Group0)
		fmt.Fprintf(w, "flip-flops substituted: %d (+%d helper gates)\n",
			res.Substitution.FFs, res.Substitution.ExtraGates)
		if res.Insert != nil {
			for _, g := range res.DDG.Nodes {
				fmt.Fprintf(w, "  region %d: succs %v, comb %.3f ns, delay element %d levels\n",
					g, res.DDG.Succs[g], res.RegionDelays[g].CombMax, res.DelayLevels[g])
			}
			fmt.Fprintf(w, "controllers: %d, C-tree cells: %d, delay cells: %d\n",
				res.Insert.Controllers, res.Insert.CTreeCells, res.Insert.DelayCells)
			fmt.Fprintf(w, "control network: %d regions derived, insert-claim cross-check clean\n",
				len(res.Network.Regions))
		}
		if tp, ok := res.BackendResult.(*twophase.Result); ok {
			fmt.Fprintf(w, "two-phase generator: ring %d levels, non-overlap %d levels, period %.3f ns (non-overlap gap %.3f ns)\n",
				tp.RingLevels, tp.NovLevels, tp.Period, tp.NonOverlap)
			fmt.Fprintf(w, "phase distribution: %d regions, %d generator cells, %d distribution buffers\n",
				len(tp.Regions), tp.GenCells, tp.DistBufs)
		}
	}
	if rep.Static != nil {
		rep.Static.WriteText(w)
	}
	if rep.Equiv != nil {
		rep.Equiv.WriteText(w)
	}
	if rep.Faults != nil {
		fmt.Fprint(w, rep.Faults.Render())
	}
}
