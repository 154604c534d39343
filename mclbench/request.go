package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/flow"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/serve"
	"mclegal/internal/stage"
)

// instance is one design variant and what the run learns about it.
type instance struct {
	name string
	in   []byte       // the .mcl legalize request body
	opt  flow.Options // the legalize options for this design

	mu sync.Mutex
	// ref is the first legalize output; every later output of the run
	// (library, HTTP or traced) must equal it byte for byte.
	ref []byte
	// reported is the first library run's own account of ref.
	reported *flow.Result
	// resident is the parsed, verified reference output, the target of
	// the read requests; want is its evaluation.
	resident *model.Design
	want     flow.Result
}

// bench is a workload set up for one run.
type bench struct {
	w    workload
	inst []*instance

	// In-process mclegald (serve workloads only).
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// newBench generates n design variants of the workload for seed and,
// for serve workloads, starts an in-process server on loopback.
func newBench(w workload, seed int64, n int) (*bench, error) {
	b := &bench{w: w}
	p := w.params()
	base := bmark.Generate(p)
	for k := 0; k < n; k++ {
		d := base.Clone()
		jitter(d, variantSeed(p.Seed, seed, k))
		var buf bytes.Buffer
		if err := bmark.Write(&buf, d); err != nil {
			return nil, err
		}
		opt := w.opt
		if opt.Shards > 0 {
			opt.ShardPlan.SlabTargetCells = d.MovableCount()/4 + 1
		}
		b.inst = append(b.inst, &instance{name: fmt.Sprintf("v%d", k), in: buf.Bytes(), opt: opt})
	}
	if !w.serve {
		return b, nil
	}

	b.srv = serve.New(serve.Config{MaxInflight: 2 * w.clients, Workers: w.opt.Workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // http.ErrServerClosed once close shuts it down
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}}
	return b, nil
}

// close stops the in-process server and waits for it to exit.
func (b *bench) close() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx)
	_ = b.hs.Shutdown(ctx)
	<-b.done
	b.client.CloseIdleConnections()
	b.hs = nil
}

// legalizeOnce sends one legalize request for in through the
// workload's path (HTTP for serve workloads) and checks its output
// against the variant's reference.
func (b *bench) legalizeOnce(in *instance) error {
	if b.w.serve {
		out, err := b.legalizeHTTP(in.in)
		if err != nil {
			return err
		}
		return in.accept(out, nil)
	}
	out, r, err := legalizeLib(in.in, in.opt)
	if err != nil {
		return err
	}
	return in.accept(out, &r)
}

// legalizeLib is one legalize request through the library: parse,
// pipeline, audit, serialize. Anything short of an audit-clean run
// with status legal is an error.
func legalizeLib(in []byte, opt flow.Options) ([]byte, flow.Result, error) {
	d, err := bmark.ReadWithMode(bytes.NewReader(in), bmark.ModeStrict)
	if err != nil {
		return nil, flow.Result{}, err
	}
	res, err := flow.RunContext(context.Background(), d, opt)
	if err != nil {
		return nil, res, err
	}
	if res.Status != stage.StatusLegal {
		return nil, res, fmt.Errorf("run ended %s, not legal", res.Status)
	}
	if err := auditClean(d); err != nil {
		return nil, res, err
	}
	var out bytes.Buffer
	if err := bmark.Write(&out, d); err != nil {
		return nil, res, err
	}
	return out.Bytes(), res, nil
}

func auditClean(d *model.Design) error {
	grid, err := seg.Build(d)
	if err != nil {
		return err
	}
	if vs := eval.Audit(d, grid); len(vs) > 0 {
		return fmt.Errorf("audit: %d violations, first %v", len(vs), vs[0])
	}
	return nil
}

// legalizeHTTP is one POST /legalize with the design as the body.
func (b *bench) legalizeHTTP(in []byte) ([]byte, error) {
	resp, err := b.client.Post(b.base+"/legalize", "text/plain", bytes.NewReader(in))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("legalize: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if st := resp.Header.Get("X-Mclegal-Status"); st != stage.StatusLegal.String() {
		return nil, fmt.Errorf("legalize: run ended %s, not legal", st)
	}
	return body, nil
}

// readHTTP is one POST /evaluate/{name} or /audit/{name} against a
// resident legalized design, checked against the expected answer.
func (b *bench) readHTTP(kind string, in *instance) error {
	resp, err := b.client.Post(b.base+"/"+kind+"/"+in.name, "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got struct {
		Score float64 `json:"score"`
		Legal bool    `json:"legal"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	switch {
	case kind == "audit" && !got.Legal:
		return fmt.Errorf("audit: resident design %s reported illegal", in.name)
	case kind == "evaluate" && got.Score != in.want.Score:
		return fmt.Errorf("evaluate: score %v, want %v", got.Score, in.want.Score)
	}
	return nil
}

// accept checks one legalize output against the variant's reference:
// the first output becomes the reference, every later one must equal
// it byte for byte. r is the library run's result, nil over HTTP.
func (in *instance) accept(out []byte, r *flow.Result) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ref == nil {
		in.ref = out
	} else if !bytes.Equal(out, in.ref) {
		return fmt.Errorf("variant %s: output differs from the first request's", in.name)
	}
	if in.reported == nil {
		in.reported = r
	}
	return nil
}

// verify fully checks the variant's reference output, once: it
// re-parses strictly, audits clean, round-trips through the writer
// byte for byte, keeps every GP position and fixed cell of the input,
// and scores exactly what the legalize run reported. It fills in the
// resident design and the expected evaluation the read requests use.
func (in *instance) verify() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.resident != nil {
		return nil
	}
	if in.ref == nil {
		return fmt.Errorf("variant %s: no legalize request completed", in.name)
	}
	src, err := bmark.ReadWithMode(bytes.NewReader(in.in), bmark.ModeStrict)
	if err != nil {
		return err
	}
	out, err := bmark.ReadWithMode(bytes.NewReader(in.ref), bmark.ModeStrict)
	if err != nil {
		return fmt.Errorf("variant %s: output does not re-parse: %w", in.name, err)
	}
	if err := auditClean(out); err != nil {
		return fmt.Errorf("variant %s: %w", in.name, err)
	}
	var again bytes.Buffer
	if err := bmark.Write(&again, out); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), in.ref) {
		return fmt.Errorf("variant %s: positions do not round-trip through bmark", in.name)
	}
	if len(src.Cells) != len(out.Cells) {
		return fmt.Errorf("variant %s: %d cells in, %d out", in.name, len(src.Cells), len(out.Cells))
	}
	for i := range src.Cells {
		s, o := &src.Cells[i], &out.Cells[i]
		if s.GX != o.GX || s.GY != o.GY || s.Fixed != o.Fixed || (s.Fixed && (s.X != o.X || s.Y != o.Y)) {
			return fmt.Errorf("variant %s: cell %d input data changed", in.name, i)
		}
	}
	want := flow.Evaluate(out, eval.HPWL(src))
	if r := in.reported; r != nil && r.Score != want.Score {
		return fmt.Errorf("variant %s: run reported score %v, output scores %v", in.name, r.Score, want.Score)
	}
	in.resident, in.want = out, want
	return nil
}
