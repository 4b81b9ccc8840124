package mga

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// karpPeriod is the differential oracle for analyzeCycles: the maximum
// cycle ratio by condensation plus Karp's maximum-mean-cycle algorithm,
// the engine's former kernel. Once liveness holds the token-free subgraph
// is a DAG; condensing onto the token places (edge p→q weighted by p's
// delay plus the longest token-free path from p's consumer to q's
// producer) turns every cycle into one that spends a token per edge, so
// the maximum cycle ratio is the condensed graph's maximum cycle mean.
// It needs n×n and (m+1)×m tables, which is why it lives only here. The
// graph must be indexed (Analyze indexes it) and carry at most one token
// per place.
func karpPeriod(g *Graph) (float64, bool) {
	n := len(g.Trans)
	order := make([]int, 0, n)
	state := make([]int, n)
	var visit func(v int)
	visit = func(v int) {
		state[v] = 1
		for _, pid := range g.out[v] {
			p := g.Places[pid]
			if p.Tokens > 0 || state[p.Dst] != 0 {
				continue
			}
			visit(p.Dst)
		}
		state[v] = 2
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			visit(v)
		}
	}
	neg := math.Inf(-1)
	long := make([]float64, n*n)
	for i := range long {
		long[i] = neg
	}
	for i := 0; i < n; i++ {
		long[i*n+i] = 0
	}
	for _, a := range order {
		for _, pid := range g.out[a] {
			p := g.Places[pid]
			if p.Tokens > 0 {
				continue
			}
			for b := 0; b < n; b++ {
				if long[p.Dst*n+b] == neg {
					continue
				}
				if d := p.Delay + long[p.Dst*n+b]; d > long[a*n+b] {
					long[a*n+b] = d
				}
			}
		}
	}
	var tok []int
	for _, p := range g.Places {
		if p.Tokens > 0 {
			tok = append(tok, p.ID)
		}
	}
	m := len(tok)
	type cedge struct {
		to int
		w  float64
	}
	adj := make([][]cedge, m)
	for i, pid := range tok {
		p := g.Places[pid]
		for j, qid := range tok {
			if l := long[p.Dst*n+g.Places[qid].Src]; l != neg {
				adj[i] = append(adj[i], cedge{j, p.Delay + l})
			}
		}
	}
	D := make([]float64, (m+1)*m)
	for i := range D {
		D[i] = neg
	}
	for v := 0; v < m; v++ {
		D[v] = 0
	}
	for k := 1; k <= m; k++ {
		for u := 0; u < m; u++ {
			if D[(k-1)*m+u] == neg {
				continue
			}
			for _, e := range adj[u] {
				if d := D[(k-1)*m+u] + e.w; d > D[k*m+e.to] {
					D[k*m+e.to] = d
				}
			}
		}
	}
	best := neg
	for v := 0; v < m; v++ {
		if D[m*m+v] == neg {
			continue
		}
		low := math.Inf(1)
		for k := 0; k < m; k++ {
			if D[k*m+v] != neg {
				low = min(low, (D[m*m+v]-D[k*m+v])/float64(m-k))
			}
		}
		best = max(best, low)
	}
	return best, best != neg
}

// checkAgainstKarp analyzes g and holds the report to the oracle: the
// period agrees within 1e-9 relative, and the named critical cycle is a
// real cycle of distinct places whose ratio is exactly the period.
func checkAgainstKarp(t *testing.T, g *Graph) *Report {
	t.Helper()
	r := g.Analyze()
	if !r.Live {
		t.Fatalf("%s: graph not live", g.Design)
	}
	want, ok := karpPeriod(g)
	if !ok {
		if r.PeriodNs != 0 || len(r.CriticalCycle) != 0 {
			t.Fatalf("%s: acyclic graph reported period %v cycle %v", g.Design, r.PeriodNs, r.CriticalCycle)
		}
		return r
	}
	if math.Abs(r.PeriodNs-want) > 1e-9*math.Abs(want) {
		t.Fatalf("%s: period %.12f, Karp %.12f", g.Design, r.PeriodNs, want)
	}
	byName := map[string]*Place{}
	for i := range g.Places {
		byName[g.Places[i].Name] = &g.Places[i]
	}
	used := map[string]bool{}
	total, tokens := 0.0, 0
	for i, nm := range r.CriticalCycle {
		p := byName[nm]
		if p == nil || used[nm] {
			t.Fatalf("%s: critical cycle %v names unknown or repeated place %q", g.Design, r.CriticalCycle, nm)
		}
		used[nm] = true
		next := byName[r.CriticalCycle[(i+1)%len(r.CriticalCycle)]]
		if p.Dst != next.Src {
			t.Fatalf("%s: critical cycle %v is broken after %q", g.Design, r.CriticalCycle, nm)
		}
		total += p.Delay
		tokens += p.Tokens
	}
	if tokens == 0 || total/float64(tokens) != r.PeriodNs {
		t.Fatalf("%s: critical cycle %v has ratio %v/%d, period %v", g.Design, r.CriticalCycle, total, tokens, r.PeriodNs)
	}
	return r
}

// randomLive builds a random live marked graph over n transitions: places
// running forward in transition order carry 0 or 1 tokens, places running
// backward (self-loops included) always carry one, so every cycle holds a
// token. A ring through all transitions makes most of the graph one
// component; tieHeavy draws delays from {1,2,3} so many cycles share a
// ratio.
func randomLive(rng *rand.Rand, n, extra int, tieHeavy bool) *Graph {
	g := &Graph{Design: fmt.Sprintf("random-%d", n)}
	for i := 0; i < n; i++ {
		g.AddTransition(fmt.Sprintf("T%d", i), TransMaster, i)
	}
	delay := func() float64 {
		if tieHeavy {
			return float64(1 + rng.Intn(3))
		}
		return rng.Float64() * 10
	}
	add := func(u, v int) {
		tok := 1
		if u < v && rng.Intn(2) == 0 {
			tok = 0
		}
		g.AddPlace(Place{Src: u, Dst: v, Tokens: tok, Delay: delay(), Name: fmt.Sprintf("p%d", len(g.Places))})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestHowardMatchesKarpRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		checkAgainstKarp(t, randomLive(rng, n, rng.Intn(3*n+1), trial%2 == 0))
	}
}

// TestHowardSparseComponents: places between components (and nodes on no
// cycle at all) must not disturb the iteration, which only runs inside
// cyclic components.
func TestHowardSparseComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		g := &Graph{Design: "sparse"}
		for i := 0; i < n; i++ {
			g.AddTransition(fmt.Sprintf("T%d", i), TransMaster, i)
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			tok := 0
			if u >= v {
				tok = 1 // backward places carry the token every cycle needs
			}
			g.AddPlace(Place{Src: u, Dst: v, Tokens: tok, Delay: float64(rng.Intn(5)), Name: fmt.Sprintf("p%d", i)})
		}
		checkAgainstKarp(t, g)
	}
}

// TestHowardSymmetricRingTieBreak: every cycle of a symmetric ring has
// the same ratio, so the named cycle is decided by the tie-break alone —
// it must start at the lowest-ID critical place, whichever order the ring
// was built in.
func TestHowardSymmetricRingTieBreak(t *testing.T) {
	for _, k := range []int{2, 3, 8} {
		for _, reverse := range []bool{false, true} {
			g := &Graph{Design: "symring"}
			for i := 0; i < k; i++ {
				g.AddTransition(fmt.Sprintf("T%d", i), TransMaster, i)
			}
			for j := 0; j < k; j++ {
				i := j
				if reverse {
					i = k - 1 - j
				}
				// Every place has delay/token ratio 2: every cycle ties.
				g.AddPlace(Place{Src: i, Dst: (i + 1) % k, Tokens: 1, Delay: 2, Name: fmt.Sprintf("f%d", i)})
				g.AddPlace(Place{Src: (i + 1) % k, Dst: i, Tokens: 1, Delay: 2, Name: fmt.Sprintf("b%d", i)})
			}
			r := checkAgainstKarp(t, g)
			if r.PeriodNs != 2 {
				t.Fatalf("k=%d reverse=%v: period %v, want 2", k, reverse, r.PeriodNs)
			}
			if want := g.Places[0].Name; r.CriticalCycle[0] != want {
				t.Fatalf("k=%d reverse=%v: critical cycle %v does not start at the lowest-ID place %s",
					k, reverse, r.CriticalCycle, want)
			}
			if k > 2 && len(r.CriticalCycle) != 2 {
				t.Fatalf("k=%d reverse=%v: critical cycle %v, want the shortest closing return", k, reverse, r.CriticalCycle)
			}
		}
	}
}

// TestHowardMatchesKarpDesigns runs the differential check on the marked
// graphs of the case studies (the ARM through the generic flow, without
// the slow scan-insertion branch), a small and a preset pipeline, and a
// flat 512-region netlist grouped automatically.
func TestHowardMatchesKarpDesigns(t *testing.T) {
	build := map[string]func() (*netlist.Design, error){
		"dlx": func() (*netlist.Design, error) {
			f, err := expt.RunDLXFlow(expt.FlowConfig{})
			if err != nil {
				return nil, err
			}
			return f.Desync, nil
		},
		"fir": func() (*netlist.Design, error) {
			f, err := expt.RunFIRFlow(expt.FlowConfig{})
			if err != nil {
				return nil, err
			}
			return f.Desync, nil
		},
		"flat512": func() (*netlist.Design, error) {
			lib := stdcells.New(stdcells.HighSpeed)
			gen, err := designs.ParseSpec("pipeline:depth=16,width=32,seed=7", lib)
			if err != nil {
				return nil, err
			}
			d, err := verilog.Read(verilog.Write(gen), lib, gen.Top.Name)
			if err != nil {
				return nil, err
			}
			_, err = core.Convert(context.Background(), d, core.Options{})
			return d, err
		},
	}
	for _, spec := range []string{"arm", "pipeline:depth=4,width=8,regions=6", "riscv"} {
		build[spec] = func() (*netlist.Design, error) {
			f, err := expt.RunGenFlow(spec, expt.FlowConfig{})
			if err != nil {
				return nil, err
			}
			return f.Desync, nil
		}
	}
	for _, name := range []string{"dlx", "fir", "arm", "pipeline:depth=4,width=8,regions=6", "riscv", "flat512"} {
		d, err := build[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cn := ctrlnet.Derive(d.Top)
		m, err := equiv.FromNetwork(d.Top, cn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := BuildGraph(d.Top, cn, m, Options{})
		r := checkAgainstKarp(t, g)
		t.Logf("%s: %d transitions, %d places, period %.4f ns, critical %v", name, len(g.Trans), len(g.Places), r.PeriodNs, r.CriticalCycle)
	}
}
