package mga

import (
	"fmt"
	"math"
	"sort"

	"desync/internal/lint"
)

// analyzeCycles computes the maximum cycle ratio delay(C)/tokens(C) over
// all directed cycles — the steady-state period of the handshake network
// — together with one cycle attaining it, without cycle enumeration and
// in memory linear in the places.
//
// The ratio comes from Howard's policy iteration (Cochet-Terrasson et al.
// 1998), run directly on the marked graph: transitions are nodes, each
// place an edge with weight Delay and transit Tokens. Liveness guarantees
// every cycle carries a token, so every ratio is finite. Cycles lie inside
// strongly connected components, so the iteration only sees places whose
// two ends share a component; every node left has an outgoing place.
//
// The named critical cycle is canonical, independent of how the iteration
// reached its optimum: among the places that are tight at the optimum
// (their reduced cost is zero under the final potentials), take the
// lowest-ID token place whose two ends share a strongly connected
// component of the tight subgraph, close the cycle with a breadth-first
// search over tight places in ascending ID order, and name it starting at
// that place. The reported period is that cycle's exact ratio, summed in
// name order.
func (g *Graph) analyzeCycles(r *Report) {
	h := g.howard()
	cyc := h.criticalCycle(g)
	if len(cyc) == 0 {
		return // no cycle at all: nothing bounds the period
	}
	names := make([]string, len(cyc))
	total, tokens := 0.0, 0
	bottleneck, worst := "", -1.0
	for i, pid := range cyc {
		p := &g.Places[pid]
		names[i] = p.Name
		total += p.Delay
		tokens += p.Tokens
		if p.Delay > worst {
			worst, bottleneck = p.Delay, p.Channel
			if bottleneck == "" {
				bottleneck = p.Name
			}
		}
	}
	period := total / float64(tokens)
	r.PeriodNs = period
	r.CriticalCycle = names
	r.Bottleneck = bottleneck
	r.Findings = append(r.Findings, lint.Finding{
		Rule: RuleCycle, Severity: lint.Info, Module: g.Design,
		Msg: fmt.Sprintf("critical handshake cycle %s: static period bound %.4f ns", joinNames(names), period),
	})
	g.perRegion(r)
}

// relTol is the relative tolerance of the policy-improvement and
// tightness tests: far above the rounding a potential accumulates along
// any realistic path, far below the gap between distinct cycle ratios.
const relTol = 1e-9

// tol is the absolute slack allowed when comparing a and b.
func tol(a, b float64) float64 {
	return relTol * max(1, math.Abs(a), math.Abs(b))
}

// policy is the state of Howard's iteration: every node that lies on some
// cycle follows one chosen out-place; following the choices from a node
// ends in a policy cycle whose ratio is the node's value lam, and pot is
// the node's potential relative to that cycle's root.
type policy struct {
	intra []bool    // intra[pid]: place pid's ends share a component
	on    []bool    // on[v]: node v lies in a cyclic component
	pick  []int     // pick[v]: chosen out-place of node v
	lam   []float64 // ratio of the policy cycle v reaches
	pot   []float64 // potential of v

	state []uint8 // evaluate's per-node walk state
	walk  []int   // evaluate's current walk
}

// howard runs policy iteration to the optimum. Each round evaluates the
// current policy, then improves it in two phases: first every node
// switches to an out-place reaching a strictly higher ratio; only when no
// node can, every node switches to an out-place of the same ratio class
// that strictly raises its potential. No switch in either phase means
// the policy is optimal.
func (g *Graph) howard() *policy {
	n := len(g.Trans)
	succ := make([][]int, n)
	for i := range g.Places {
		p := &g.Places[i]
		succ[p.Src] = append(succ[p.Src], p.Dst)
	}
	comp := make([]int, n)
	for c, scc := range tarjan(n, succ) {
		for _, v := range scc {
			comp[v] = c
		}
	}
	h := &policy{
		intra: make([]bool, len(g.Places)),
		on:    make([]bool, n),
		pick:  make([]int, n),
		lam:   make([]float64, n),
		pot:   make([]float64, n),
		state: make([]uint8, n),
	}
	// Initial policy: the slowest intra-component out-place (lowest ID on
	// ties, since out lists ascend).
	for v := 0; v < n; v++ {
		h.pick[v] = -1
		for _, pid := range g.out[v] {
			p := &g.Places[pid]
			if comp[p.Src] != comp[p.Dst] {
				continue
			}
			h.intra[pid] = true
			h.on[v] = true
			if h.pick[v] < 0 || p.Delay > g.Places[h.pick[v]].Delay {
				h.pick[v] = pid
			}
		}
	}
	for {
		h.evaluate(g)
		if !h.improve(g) {
			return h
		}
	}
}

// evaluate computes lam and pot for the current policy: each node's
// choices lead into exactly one policy cycle; the cycle's lowest-ID node
// is its root with potential 0, and every other node's potential is its
// chosen place's reduced cost plus its successor's potential.
func (h *policy) evaluate(g *Graph) {
	const (
		unseen = iota
		onPath
		done
	)
	state := h.state
	for v := range state {
		state[v] = unseen
	}
	next := func(v int) int { return g.Places[h.pick[v]].Dst }
	settle := func(v int) {
		p := &g.Places[h.pick[v]]
		h.lam[v] = h.lam[p.Dst]
		h.pot[v] = p.Delay - h.lam[v]*float64(p.Tokens) + h.pot[p.Dst]
		state[v] = done
	}
	for v := range state {
		if !h.on[v] || state[v] != unseen {
			continue
		}
		walk := h.walk[:0]
		u := v
		for state[u] == unseen {
			state[u] = onPath
			walk = append(walk, u)
			u = next(u)
		}
		if state[u] == onPath {
			// A new policy cycle: the tail of the walk from u.
			k := len(walk) - 1
			for walk[k] != u {
				k--
			}
			cyc := walk[k:]
			root, at := cyc[0], 0
			total, tokens := 0.0, 0
			for i, w := range cyc {
				p := &g.Places[h.pick[w]]
				total += p.Delay
				tokens += p.Tokens
				if w < root {
					root, at = w, i
				}
			}
			h.lam[root] = total / float64(tokens)
			h.pot[root] = 0
			state[root] = done
			// Settle the rest of the cycle backwards from the root.
			for j := 1; j < len(cyc); j++ {
				settle(cyc[(at-j+len(cyc))%len(cyc)])
			}
			walk = walk[:k]
		}
		for i := len(walk) - 1; i >= 0; i-- {
			settle(walk[i])
		}
		h.walk = walk
	}
}

// improve applies one improvement phase and reports whether any node
// switched.
func (h *policy) improve(g *Graph) bool {
	changed := false
	for v, on := range h.on {
		if !on {
			continue
		}
		best, lam := h.pick[v], h.lam[v]
		for _, pid := range g.out[v] {
			if d := g.Places[pid].Dst; h.intra[pid] && h.lam[d] > lam+tol(lam, h.lam[d]) {
				best, lam = pid, h.lam[d]
			}
		}
		if best != h.pick[v] {
			h.pick[v] = best
			changed = true
		}
	}
	if changed {
		return true
	}
	for v, on := range h.on {
		if !on {
			continue
		}
		best, pot := h.pick[v], h.pot[v]
		for _, pid := range g.out[v] {
			p := &g.Places[pid]
			if !h.intra[pid] || h.lam[p.Dst] < h.lam[v]-tol(h.lam[v], h.lam[p.Dst]) {
				continue
			}
			if val := h.reduced(p); val > pot+tol(pot, val) {
				best, pot = pid, val
			}
		}
		if best != h.pick[v] {
			h.pick[v] = best
			changed = true
		}
	}
	return changed
}

// reduced is the potential place p offers its source: its delay less the
// source's ratio per token, plus the destination's potential.
func (h *policy) reduced(p *Place) float64 {
	return p.Delay - h.lam[p.Src]*float64(p.Tokens) + h.pot[p.Dst]
}

// criticalCycle names the canonical critical cycle as place IDs in firing
// order, or nil when the graph has no cycle.
func (h *policy) criticalCycle(g *Graph) []int {
	n := len(g.Trans)
	best := math.Inf(-1)
	for v, on := range h.on {
		if on && h.lam[v] > best {
			best = h.lam[v]
		}
	}
	if math.IsInf(best, -1) {
		return nil
	}
	// Tight subgraph: places between critical nodes whose reduced cost
	// vanishes. Policy places are tight by construction.
	tight := make([]bool, len(g.Places))
	succ := make([][]int, n)
	for v, on := range h.on {
		if !on || h.lam[v] < best-tol(best, h.lam[v]) {
			continue
		}
		for _, pid := range g.out[v] {
			p := &g.Places[pid]
			if !h.intra[pid] || h.lam[p.Dst] < best-tol(best, h.lam[p.Dst]) {
				continue
			}
			if val := h.reduced(p); pid == h.pick[v] || val >= h.pot[v]-tol(h.pot[v], val) {
				tight[pid] = true
				succ[v] = append(succ[v], p.Dst)
			}
		}
	}
	comp := make([]int, n)
	for c, scc := range tarjan(n, succ) {
		for _, v := range scc {
			comp[v] = c
		}
	}
	start := -1
	for i := range g.Places {
		p := &g.Places[i]
		if tight[i] && p.Tokens > 0 && comp[p.Src] == comp[p.Dst] {
			start = i
			break
		}
	}
	if start < 0 {
		return nil // unreachable on a live graph: every tight cycle carries a token
	}
	// Shortest tight return path from start's consumer to its producer,
	// expanding out-places in ascending ID order.
	p0 := &g.Places[start]
	via := make([]int, n) // place that first reached each node
	queue := []int{p0.Dst}
	seen := make([]bool, n)
	seen[p0.Dst] = true
	for len(queue) > 0 && !seen[p0.Src] {
		v := queue[0]
		queue = queue[1:]
		for _, pid := range g.out[v] {
			d := g.Places[pid].Dst
			if tight[pid] && comp[d] == comp[v] && !seen[d] {
				seen[d] = true
				via[d] = pid
				queue = append(queue, d)
			}
		}
	}
	var back []int
	for v := p0.Src; v != p0.Dst; v = g.Places[via[v]].Src {
		back = append(back, via[v])
	}
	cyc := []int{start}
	for i := len(back) - 1; i >= 0; i-- {
		cyc = append(cyc, back[i])
	}
	return cyc
}

// perRegion reports, for every region, its locally worst channel cycle —
// the request/acknowledge place pair with the highest ratio — as an
// advisory MG-PERF finding, so a designer sees which channel to retime
// even when it is not the global bottleneck.
func (g *Graph) perRegion(r *Report) {
	type pair struct {
		period  float64
		channel string
	}
	worst := map[int]pair{}
	for _, p := range g.Places {
		if p.Channel == "" {
			continue
		}
		v := g.Trans[p.Dst].Region
		if v < 0 {
			continue
		}
		// Close the channel cycle: the reverse place between the same two
		// transitions (acknowledge for a request, reopen for an env edge).
		total, tokens := p.Delay, p.Tokens
		back := -1
		for _, qid := range g.out[p.Dst] {
			if g.Places[qid].Dst == p.Src {
				if back < 0 || g.Places[qid].Delay > g.Places[back].Delay {
					back = qid
				}
			}
		}
		if back >= 0 {
			total += g.Places[back].Delay
			tokens += g.Places[back].Tokens
		}
		if tokens == 0 {
			continue // liveness already rejected this cycle
		}
		ratio := total / float64(tokens)
		if w, ok := worst[v]; !ok || ratio > w.period {
			worst[v] = pair{ratio, p.Channel}
		}
	}
	regions := make([]int, 0, len(worst))
	for v := range worst {
		regions = append(regions, v)
	}
	sort.Ints(regions)
	for _, v := range regions {
		w := worst[v]
		r.PerRegion = append(r.PerRegion, RegionPerf{Region: v, Channel: w.channel, PeriodNs: w.period})
		r.Findings = append(r.Findings, lint.Finding{
			Rule: RulePerf, Severity: lint.Info, Module: g.Design,
			Msg: fmt.Sprintf("region %d bottleneck channel %s: local cycle %.4f ns", v, w.channel, w.period),
		})
	}
}
