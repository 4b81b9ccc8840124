// Command probe is the in-process half of the repository benchmark
// (perfbench/run.py). It has four subcommands, each reading a JSON request
// file and writing a JSON answer file:
//
//	probe prepare req.json out.json  build the workload's inputs: write flat
//	                                 Verilog for specs fed through -in or
//	                                 uploaded, and measure each synchronous
//	                                 input's cell area (the QoR reference)
//	probe check req.json out.json    re-read produced netlists, run Validate
//	                                 and measure their cell area
//	probe trace req.json out.json    the traced run: call each layer's public
//	                                 functions in the order cmd/drdesync calls
//	                                 them, with a span around every call, then
//	                                 run standalone kernels on each output;
//	                                 write the spans as Chrome trace-event JSON
//	                                 and the per-layer totals as metrics
//	probe calibrate req.json out.json
//	                                 time a fixed kernel that uses none of
//	                                 the program's code, which gives the
//	                                 host's current speed
//
// The benchmark's end-to-end numbers come from the real drdesync and
// drserve binaries; this program only feeds, checks, calibrates and
// explains them.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: probe prepare|check|trace|calibrate req.json out.json")
		os.Exit(2)
	}
	cmds := map[string]func(req []byte) (any, error){
		"prepare":   prepare,
		"check":     check,
		"trace":     trace,
		"calibrate": calibrate,
	}
	cmd, ok := cmds[os.Args[1]]
	if !ok {
		fmt.Fprintf(os.Stderr, "probe: unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
	req, err := os.ReadFile(os.Args[2])
	if err == nil {
		var out any
		if out, err = cmd(req); err == nil {
			err = writeJSON(os.Args[3], out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// source names one design: a generator spec or a Verilog file, mapped to a
// library variant ("HS" or "LL").
type source struct {
	Key  string `json:"key"`
	Spec string `json:"spec,omitempty"`
	File string `json:"file,omitempty"`
	Lib  string `json:"lib"`
}

func (s source) load() (*netlist.Design, error) {
	lib, err := stdcells.NewChecked(stdcells.Variant(s.Lib))
	if err != nil {
		return nil, err
	}
	if s.Spec != "" {
		return designs.ParseSpec(s.Spec, lib)
	}
	src, err := os.ReadFile(s.File)
	if err != nil {
		return nil, err
	}
	return verilog.Read(string(src), lib, "")
}

// cellArea is the total standard-cell area of the flattened design, the
// area figure of the paper's Tables 5.1/5.2.
func cellArea(d *netlist.Design) (float64, error) {
	if err := d.Flatten(true); err != nil {
		return 0, err
	}
	return d.Top.ComputeStats().CellArea, nil
}

type prepareReq struct {
	// Write lists generated designs to write as flat Verilog files.
	Write []struct {
		Spec string `json:"spec"`
		Path string `json:"path"`
	} `json:"write"`
	// Refs lists the synchronous inputs whose area the QoR ratio divides by.
	Refs []source `json:"refs"`
}

type ref struct {
	Area  float64 `json:"area"`
	Insts int     `json:"insts"`
}

func prepare(raw []byte) (any, error) {
	var req prepareReq
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	for _, w := range req.Write {
		d, err := designs.ParseSpec(w.Spec, stdcells.New(stdcells.HighSpeed))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(w.Path, []byte(verilog.Write(d)), 0o644); err != nil {
			return nil, err
		}
	}
	out := map[string]ref{}
	for _, s := range req.Refs {
		d, err := s.load()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Key, err)
		}
		a, err := cellArea(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Key, err)
		}
		out[s.Key] = ref{Area: a, Insts: len(d.Top.Insts)}
	}
	return out, nil
}

type checked struct {
	OK    bool    `json:"ok"`
	Err   string  `json:"err,omitempty"`
	Area  float64 `json:"area"`
	Insts int     `json:"insts"`
}

// check re-reads every produced netlist from its bytes and requires a clean
// full Validate pass: the output must import as a well-formed netlist.
func check(raw []byte) (any, error) {
	var req struct {
		Files []source `json:"files"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	out := map[string]checked{}
	for _, s := range req.Files {
		d, err := s.load()
		if err != nil {
			out[s.Key] = checked{Err: "re-read: " + err.Error()}
			continue
		}
		if errs := d.Top.Validate(netlist.ValidateOptions{MaxErrors: 4}); len(errs) > 0 {
			out[s.Key] = checked{Err: fmt.Sprintf("validate: %v (%d errors)", errs[0], len(errs))}
			continue
		}
		a, err := cellArea(d)
		if err != nil {
			out[s.Key] = checked{Err: err.Error()}
			continue
		}
		out[s.Key] = checked{OK: true, Area: a, Insts: len(d.Top.Insts)}
	}
	return out, nil
}
