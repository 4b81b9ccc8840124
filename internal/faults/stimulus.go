package faults

import (
	"strings"

	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// ResetStimulus builds a campaign stimulus from the common port naming
// conventions of this flow's designs: active-low resets pulse low then
// release at t=1, active-high resets pulse high then release at t=1, the
// rst_desync controller reset releases at t=2 (after the datapath reset, as
// in the reference DLX testbench), delsel taps take the bits of sel, and
// every other input idles low. The gate pipeline uses it when no hand-written
// testbench is available; designs with other conventions supply their own
// Stimulus function.
func ResetStimulus(m *netlist.Module, sel int) func(*sim.Simulator) error {
	type drive struct {
		port string
		v    logic.V
		at   float64
	}
	var drives []drive
	for _, p := range m.Ports {
		if p.Dir != netlist.In {
			continue
		}
		base, idx, isBus := netlist.BusBase(p.Name)
		if !isBus {
			base = p.Name
		}
		lower := strings.ToLower(base)
		switch {
		case strings.Contains(lower, "delsel"):
			v := logic.L
			if isBus && sel >= 0 && sel>>uint(idx)&1 == 1 {
				v = logic.H
			}
			drives = append(drives, drive{p.Name, v, 0})
		case strings.Contains(lower, "desync"):
			drives = append(drives, drive{p.Name, logic.H, 0}, drive{p.Name, logic.L, 2})
		case strings.Contains(lower, "rstn") || strings.Contains(lower, "rst_n") ||
			strings.Contains(lower, "resetn") || strings.Contains(lower, "reset_n"):
			drives = append(drives, drive{p.Name, logic.L, 0}, drive{p.Name, logic.H, 1})
		case strings.Contains(lower, "rst") || strings.Contains(lower, "reset"):
			drives = append(drives, drive{p.Name, logic.H, 0}, drive{p.Name, logic.L, 1})
		default:
			drives = append(drives, drive{p.Name, logic.L, 0})
		}
	}
	return func(s *sim.Simulator) error {
		for _, d := range drives {
			if err := s.Drive(d.port, d.v, d.at); err != nil {
				return err
			}
		}
		return nil
	}
}
