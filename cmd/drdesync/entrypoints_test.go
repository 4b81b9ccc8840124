package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"desync/internal/designs"
	"desync/internal/flowserv"
)

// inputRegsOnly is a design the automatic grouping rejects: its only
// flip-flops register primary inputs directly, so no region exists and the
// flow must fall back to a single region.
const inputRegsOnly = `
module m (clk, rstn, a, b, qa, qb);
  input clk, rstn, a, b;
  output qa, qb;
  DFFRQX1 ra (.D(a), .CK(clk), .RN(rstn), .Q(qa));
  DFFRQX1 rb (.D(b), .CK(clk), .RN(rstn), .Q(qb));
endmodule
`

// TestEntryPointsAgree is the cross-entry-point differential test: the same
// input and options, with the same explicit period, go through the CLI's
// run and through a live job server, and both must give the same verdict
// (ok, or the same failure) and byte-identical netlist and constraints.
func TestEntryPointsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite runs every case through both entry points")
	}
	s := flowserv.New(flowserv.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-served })
	base := "http://" + ln.Addr().String()

	dir := t.TempDir()
	upload := filepath.Join(dir, "inregs.v")
	if err := os.WriteFile(upload, []byte(inputRegsOnly), 0o644); err != nil {
		t.Fatal(err)
	}

	type tcase struct {
		name string
		o    runOpts
		req  flowserv.JobRequest
	}
	var cases []tcase
	for _, g := range []struct {
		gen    string
		period float64
	}{{"dlx", 4.65}, {"fir", 6.0}, {"arm", 8.0}, {"pipeline:depth=4,width=8,regions=6", 2.0}} {
		lib := string(designs.DefaultLibVariant(g.gen))
		for _, backend := range []string{"desync", "twophase"} {
			cases = append(cases, tcase{
				name: g.gen + "/" + backend,
				o:    runOpts{gen: g.gen, libVariant: lib, backend: backend, period: g.period, margin: 1.15},
				req: flowserv.JobRequest{Gen: g.gen, Lib: lib,
					Options: flowserv.FlowOptions{Backend: backend, Period: g.period}},
			})
		}
	}
	cases = append(cases,
		tcase{
			name: "no-regions upload",
			o:    runOpts{in: upload, libVariant: "HS", period: 1, margin: 1.15},
			req:  flowserv.JobRequest{Verilog: inputRegsOnly, Options: flowserv.FlowOptions{Period: 1}},
		},
		tcase{
			name: "dlx margin 0.05",
			o:    runOpts{gen: "dlx", libVariant: "HS", period: 4.65, margin: 0.05},
			req:  flowserv.JobRequest{Gen: "dlx", Options: flowserv.FlowOptions{Period: 4.65, Margin: 0.05}},
		},
	)

	for i, tc := range cases {
		o := tc.o
		o.out = filepath.Join(dir, fmt.Sprintf("%d.v", i))
		o.sdcOut = filepath.Join(dir, fmt.Sprintf("%d.sdc", i))
		cli := verdict(run(context.Background(), o))
		id, srv := serverVerdict(t, base, tc.req)
		if cli != srv {
			t.Errorf("%s: CLI verdict %q, server verdict %q", tc.name, cli, srv)
			continue
		}
		if cli != "ok" {
			continue
		}
		for path, art := range map[string]string{o.out: flowserv.ArtifactNetlist, o.sdcOut: flowserv.ArtifactConstraints} {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fetch(t, base+"/jobs/"+id+"/artifacts/"+art); !bytes.Equal(got, want) {
				t.Errorf("%s: server %s differs from the CLI output", tc.name, art)
			}
		}
	}
}

func verdict(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// serverVerdict submits one job, waits for it to finish and returns its id
// and verdict.
func serverVerdict(t *testing.T, base string, req flowserv.JobRequest) (string, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st flowserv.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if err := json.Unmarshal(fetch(t, base+"/jobs/"+st.ID), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case flowserv.StateDone:
			return st.ID, "ok"
		case flowserv.StateFailed, flowserv.StateCanceled:
			return st.ID, st.Error
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return b
}
