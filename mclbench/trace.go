package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/flow"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mcf"
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/refine"
	"mclegal/internal/route"
	"mclegal/internal/seg"
	"mclegal/internal/shard"
	"mclegal/internal/stage"
)

// span is one layer call of a traced request. Spans of one request
// never nest or overlap, so the request's time is the sum of its spans
// plus an unaccounted residual.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Region int    `json:"region"` // shard plan index, -1 outside a region
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs and Bytes are heap allocations during the span; recorded
	// for the solver layers only (-1 elsewhere), since reading them
	// stops the world.
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
}

// reqTrace summarizes one traced request.
type reqTrace struct {
	Req    int    `json:"req"`
	Kind   string `json:"kind"` // "legalize", "evaluate" or "audit"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	first  int    // index of the request's first span
	counts layerCounts
}

// layerCounts are the work counters of one traced legalize request,
// summed over shard regions.
type layerCounts struct {
	mgl     mgl.Stats
	maxdisp maxdisp.Stats
	refine  refine.Report
	regions int
	viol    route.Violations
	score   float64
}

// tracer records spans in memory; they are written out once, at the
// end of the run.
type tracer struct {
	epoch  time.Time
	spans  []span
	reqs   []reqTrace
	region int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14), region: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do runs fn as one span of the current request.
func (t *tracer) do(name string, fn func() error) error {
	s := span{Name: name, Req: len(t.reqs) - 1, Region: t.region, Allocs: -1, Bytes: -1}
	s.Start = t.now()
	err := fn()
	s.End = t.now()
	t.spans = append(t.spans, s)
	return err
}

// doAlloc is do plus heap-allocation accounting for the span.
func (t *tracer) doAlloc(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := span{Name: name, Req: len(t.reqs) - 1, Region: t.region}
	s.Start = t.now()
	err := fn()
	s.End = t.now()
	runtime.ReadMemStats(&m1)
	s.Allocs = int64(m1.Mallocs - m0.Mallocs)
	s.Bytes = int64(m1.TotalAlloc - m0.TotalAlloc)
	t.spans = append(t.spans, s)
	return err
}

// request opens a traced request; fn runs its layers.
func (t *tracer) request(kind string, fn func(c *layerCounts) error) error {
	t.reqs = append(t.reqs, reqTrace{Req: len(t.reqs), Kind: kind, first: len(t.spans)})
	r := &t.reqs[len(t.reqs)-1]
	r.Start = t.now()
	err := fn(&r.counts)
	t.reqs[len(t.reqs)-1].End = t.now()
	return err
}

// spansOf returns the spans of request i.
func (t *tracer) spansOf(i int) []span {
	end := len(t.spans)
	if i+1 < len(t.reqs) {
		end = t.reqs[i+1].first
	}
	return t.spans[t.reqs[i].first:end]
}

// write saves every span and request summary as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.reqs {
		if err := enc.Encode(map[string]any{"request": t.reqs[i]}); err != nil {
			f.Close()
			return err
		}
		for _, s := range t.spansOf(i) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// legalizeTraced is one legalize request driven layer by layer through
// the layers' public functions, composed exactly as flow.RunContext
// composes them for opt (gated stages when opt.Verify is set), so its
// output must be byte-identical to the untraced request's.
func (t *tracer) legalizeTraced(in []byte, opt flow.Options) ([]byte, error) {
	var out []byte
	err := t.request("legalize", func(c *layerCounts) error {
		if err := opt.Validate(); err != nil {
			return err
		}
		var d *model.Design
		if err := t.do("bmark.read", func() (err error) {
			d, err = bmark.ReadWithMode(bytes.NewReader(in), bmark.ModeStrict)
			return err
		}); err != nil {
			return err
		}
		if err := t.do("model.validate", d.Validate); err != nil {
			return err
		}
		var hpwlBefore int64
		t.do("eval.measure", func() error { hpwlBefore = eval.HPWL(d); return nil })

		var checker *route.Checker
		if opt.Shards > 0 {
			if err := t.sharded(d, opt, c); err != nil {
				return err
			}
			t.do("route.setup", func() error { checker = route.NewChecker(d); return nil })
		} else {
			pc, err := t.context(d, opt)
			if err != nil {
				return err
			}
			if err := t.pipeline(pc, opt, c); err != nil {
				return err
			}
			checker = pc.Checker
		}

		t.do("route.count", func() error { c.viol = checker.Count(); return nil })
		t.do("eval.measure", func() error {
			c.score = eval.Score(eval.ScoreInput{
				Metrics: eval.Measure(d), HPWLBefore: hpwlBefore, HPWLAfter: eval.HPWL(d),
				PinViolations: c.viol.Pin(), EdgeViolations: c.viol.EdgeSpacing,
				Cells: d.MovableCount(),
			})
			return nil
		})
		// The final audit: auditClean's two layers, one span each.
		var grid *seg.Grid
		if err := t.do("seg.build", func() (err error) {
			grid, err = seg.Build(d)
			return err
		}); err != nil {
			return err
		}
		if err := t.do("eval.audit", func() error {
			if vs := eval.Audit(d, grid); len(vs) > 0 {
				return fmt.Errorf("audit: %d violations, first %v", len(vs), vs[0])
			}
			return nil
		}); err != nil {
			return err
		}
		return t.do("bmark.write", func() error {
			var buf bytes.Buffer
			err := bmark.Write(&buf, d)
			out = buf.Bytes()
			return err
		})
	})
	return out, err
}

// context is stage.NewContext, one span per layer.
func (t *tracer) context(d *model.Design, opt flow.Options) (*stage.PipelineContext, error) {
	pc := &stage.PipelineContext{Design: d}
	if err := t.do("seg.build", func() (err error) {
		pc.Grid, err = seg.Build(d)
		return err
	}); err != nil {
		return nil, err
	}
	t.do("route.setup", func() error {
		pc.Checker = route.NewChecker(d)
		if opt.Routability {
			pc.Rules = route.NewRules(pc.Checker)
		}
		return nil
	})
	return pc, nil
}

// pipeline runs MGL, max-displacement matching and refinement on pc
// with the options flow.Stages derives from opt, wrapping each stage in
// the legality gate's snapshot and audit when opt.Verify is set.
func (t *tracer) pipeline(pc *stage.PipelineContext, opt flow.Options, c *layerCounts) error {
	d := pc.Design
	// gate is stage's runGated on the success path: position snapshot
	// (plus the "before" measurement when the stage has a metric
	// check), the stage, then the audit and the metric check.
	gate := func(name string, run func() error, check func() error) error {
		if !opt.Verify {
			return run()
		}
		t.do("stage.gate", func() error {
			d.SnapshotXY()
			if check != nil {
				eval.Measure(d)
			}
			return nil
		})
		if err := run(); err != nil {
			return err
		}
		return t.do("stage.gate", func() error {
			if vs := eval.Audit(d, pc.Grid); len(vs) > 0 {
				return fmt.Errorf("gate %s: %d violations", name, len(vs))
			}
			if check != nil {
				eval.Measure(d)
				return check()
			}
			return nil
		})
	}

	ctx := context.Background()
	for _, s := range flow.Stages(d, opt) {
		var err error
		switch s := s.(type) {
		case *stage.MGLStage:
			mglOpt := s.Opt
			if pc.Rules != nil {
				mglOpt.Rules = pc.Rules
			}
			err = gate(s.Name(), func() error {
				var l *mgl.Legalizer
				t.doAlloc("mgl.new", func() error { l = mgl.New(d, pc.Grid, mglOpt); return nil })
				err := t.doAlloc("mgl.run", func() error { return l.RunContext(ctx) })
				c.mgl.Placed += l.Stats.Placed
				c.mgl.WindowRetries += l.Stats.WindowRetries
				c.mgl.Batches += l.Stats.Batches
				return err
			}, nil)
		case *stage.MaxDispStage:
			var st maxdisp.Stats
			err = gate(s.Name(), func() error {
				return t.doAlloc("maxdisp.run", func() (err error) {
					st, err = maxdisp.OptimizeContext(ctx, d, s.Opt)
					return err
				})
			}, func() error {
				// flow's matching metric check.
				if st.CostAfter > st.CostBefore {
					return fmt.Errorf("maxdisp: phi cost regressed from %d to %d", st.CostBefore, st.CostAfter)
				}
				return nil
			})
			c.maxdisp.Groups += st.Groups
			c.maxdisp.Swapped += st.Swapped
			c.maxdisp.CostBefore += st.CostBefore
			c.maxdisp.CostAfter += st.CostAfter
		case *stage.RefineStage:
			rOpt := s.Opt
			if s.UseRanges && pc.Rules != nil {
				rOpt.Ranges = pc.Rules.RangeProvider(pc.Grid)
			}
			rOpt.Solver = mcf.NewSolver()
			var rep refine.Report
			err = gate(s.Name(), func() error {
				return t.doAlloc("refine.run", func() (err error) {
					rep, err = refine.OptimizeContext(ctx, d, pc.Grid, rOpt)
					return err
				})
			}, nil)
			c.refine.Nodes += rep.Nodes
			c.refine.Arcs += rep.Arcs
			c.refine.Pivots += rep.Pivots
			c.refine.Moved += rep.Moved
			c.refine.SolveNs += rep.SolveNs
		default:
			err = fmt.Errorf("trace: no traced equivalent of stage %s", s.Name())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sharded is flow's sharded path with the regions run one after
// another, so each region's layers are timed alone.
func (t *tracer) sharded(d *model.Design, opt flow.Options, c *layerCounts) error {
	var grid *seg.Grid
	if err := t.do("seg.build", func() (err error) {
		grid, err = seg.Build(d)
		return err
	}); err != nil {
		return err
	}
	var plan shard.Plan
	t.do("shard.plan", func() error { plan = shard.BuildPlan(d, grid, opt.ShardPlan); return nil })
	subs := make([]*model.Subdesign, len(plan.Regions))
	if err := t.do("shard.split", func() error {
		for i, r := range plan.Regions {
			sub, err := model.NewSubdesign(d, r.Name, r.Cells, r.Blockages)
			if err != nil {
				return fmt.Errorf("shard %s: %w", r.Name, err)
			}
			subs[i] = sub
		}
		return nil
	}); err != nil {
		return err
	}
	c.regions = len(subs)
	for i, sub := range subs {
		t.region = i
		pc, err := t.context(sub.Design, opt)
		if err == nil {
			err = t.pipeline(pc, opt, c)
		}
		t.region = -1
		if err != nil {
			return fmt.Errorf("shard %s: %w", sub.Design.Name, err)
		}
	}
	t.do("shard.merge", func() error {
		for _, sub := range subs {
			sub.MergeBack(d)
		}
		return nil
	})
	return nil
}

// readTraced is one traced evaluate or audit request against a
// resident design, mirroring the server's handlers.
func (t *tracer) readTraced(kind string, in *instance) error {
	return t.request(kind, func(*layerCounts) error {
		var d, gp *model.Design
		t.do("serve.clone", func() error { d = in.resident.Clone(); return nil })
		if kind == "audit" {
			var grid *seg.Grid
			if err := t.do("seg.build", func() (err error) {
				grid, err = seg.Build(d)
				return err
			}); err != nil {
				return err
			}
			return t.do("eval.audit", func() error {
				if vs := eval.Audit(d, grid); len(vs) > 0 {
					return fmt.Errorf("audit: resident design %s has %d violations", in.name, len(vs))
				}
				return nil
			})
		}
		t.do("serve.clone", func() error { gp = d.Clone(); return nil })
		var m eval.Metrics
		var before, after int64
		t.do("eval.measure", func() error {
			gp.ResetToGP()
			before, after, m = eval.HPWL(gp), eval.HPWL(d), eval.Measure(d)
			return nil
		})
		var checker *route.Checker
		t.do("route.setup", func() error { checker = route.NewChecker(d); return nil })
		var v route.Violations
		t.do("route.count", func() error { v = checker.Count(); return nil })
		var score float64
		t.do("eval.measure", func() error {
			score = eval.Score(eval.ScoreInput{
				Metrics: m, HPWLBefore: before, HPWLAfter: after,
				PinViolations: v.Pin(), EdgeViolations: v.EdgeSpacing,
				Cells: d.MovableCount(),
			})
			return nil
		})
		if score != in.want.Score {
			return fmt.Errorf("evaluate: score %v, want %v", score, in.want.Score)
		}
		return nil
	})
}
