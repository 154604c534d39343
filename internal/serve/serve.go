// Package serve is the legalization server: it holds parsed designs
// resident in memory and serves concurrent legalize, evaluate and
// audit requests over HTTP, speaking the .mcl text format on the wire
// (see docs/ROBUSTNESS.md, "Serving").
//
// The server is built on the pipeline's resilience layer rather than
// beside it: every run is gated and verified by default, failures
// cross the wire as the same typed taxonomy the CLI reports
// (Error/Kind mirrors GateReport/RunStatus), per-request deadlines ride
// the existing context plumbing with deadline expiry distinguished
// from client cancellation, and a panic anywhere in a handler is
// contained to that request. Admission control is a fixed slot pool:
// an overloaded server answers 429 with Retry-After immediately
// instead of queuing unboundedly.
//
// Resident designs are immutable once stored — a legalization run
// always works on a private clone — so any number of requests can read
// the same design concurrently.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/faults"
	"mclegal/internal/flow"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/stage"
)

// Config tunes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxInflight bounds how many legalize/evaluate/audit requests run
	// concurrently; requests beyond it are refused with 429 +
	// Retry-After rather than queued (0 = 4 slots).
	MaxInflight int
	// DefaultTimeout is the per-request deadline budget when the client
	// sends no ?timeout (0 = 1m); MaxTimeout caps client-requested
	// budgets (0 = 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Limits bounds untrusted .mcl request bodies; the zero value picks
	// a 64 MiB / 4M-entity default. Oversized bodies fail typed with
	// KindLimit (413), never by exhausting memory.
	Limits bmark.Limits
	// Workers and Shards are the default pipeline concurrency knobs for
	// runs that do not override them per request.
	Workers int
	Shards  int
	// FaultHook, when set, supplies a fault injector for each
	// legalization run (the chaos suite's seam). nil runs are
	// injection-free.
	FaultHook func(r *http.Request) *faults.Injector
}

// Server holds resident designs and serves legalization requests. Use
// New; the zero value is not usable.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.RWMutex
	designs map[string]*model.Design

	// sem is the admission slot pool; Drain takes every slot to wait
	// out in-flight work.
	sem      chan struct{}
	draining atomic.Bool

	// workCtx parents every run's context; cancelWork aborts all
	// in-flight runs when the drain grace expires.
	workCtx    context.Context
	cancelWork context.CancelFunc
}

// New builds a Server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.Limits == (bmark.Limits{}) {
		cfg.Limits = bmark.Limits{MaxBytes: 64 << 20, MaxCount: 4 << 20}
	}
	workCtx, cancelWork := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		designs:    make(map[string]*model.Design),
		sem:        make(chan struct{}, cfg.MaxInflight),
		workCtx:    workCtx,
		cancelWork: cancelWork,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.guard(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.guard(s.handleReadyz))
	mux.HandleFunc("GET /designs", s.guard(s.handleListDesigns))
	mux.HandleFunc("POST /designs/{name}", s.guard(s.handlePutDesign))
	mux.HandleFunc("GET /designs/{name}", s.guard(s.handleGetDesign))
	mux.HandleFunc("DELETE /designs/{name}", s.guard(s.handleDeleteDesign))
	for _, route := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /legalize", s.handleLegalize},
		{"POST /legalize/{name}", s.handleLegalize},
		{"POST /evaluate", s.handleEvaluate},
		{"POST /evaluate/{name}", s.handleEvaluate},
		{"POST /audit", s.handleAudit},
		{"POST /audit/{name}", s.handleAudit},
	} {
		mux.HandleFunc(route.pattern, s.guard(s.admit(route.h)))
	}
	s.mux = mux
	return s
}

// Handler is the server's HTTP handler; mount it on an http.Server (or
// an httptest.Server in tests).
func (s *Server) Handler() http.Handler { return s.mux }

// AddDesign stores a resident design under name, replacing any
// previous one. The design is cloned on the way in: the caller keeps
// ownership of d, and the resident copy is never mutated afterwards.
//
//mclegal:writes design.meta the incoming design is cloned into the store; the clone's cell tables are written during the deep copy
func (s *Server) AddDesign(name string, d *model.Design) {
	c := d.Clone()
	s.mu.Lock()
	s.designs[name] = c
	s.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the work pool down: new run requests are
// refused with 503 (draining) immediately, in-flight runs get until
// ctx expires to finish, and when the grace runs out every remaining
// run is cancelled — each aborts at its next unit of work and answers
// its client with a typed partial-result error. Drain returns once no
// run is in flight; the returned error is ctx.Err() when the grace
// expired (a forced drain) and nil for a clean one.
//
// Drain does not close HTTP listeners — the caller owns its
// http.Server and runs Shutdown alongside (see cmd/mclegald).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// When the grace expires, cancel every in-flight run; the blocking
	// slot acquisitions below are then guaranteed to make progress.
	stop := context.AfterFunc(ctx, s.cancelWork)
	defer stop() //mclegal:writeset stop is context.AfterFunc's own cancellation handle; it touches only the context machinery
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	// All slots held: no run is in flight and none can be admitted.
	s.cancelWork() //mclegal:writeset cancelWork is the server's own context.CancelFunc; it touches only the context machinery
	return ctx.Err()
}

// guard contains a panicking handler to its own request: the client
// gets a typed 500 and the server keeps serving. (Gated pipeline runs
// already convert stage panics to errors; this is the belt for
// everything outside them.)
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeError(w, &Error{Kind: KindPanic, Message: fmt.Sprintf("request handler panicked: %v", v)})
			}
		}()
		h(w, r) //mclegal:writeset h is one of this server's own handlers, each individually proven inside the clone boundary
	}
}

// admit is the admission-control wrapper for run endpoints: draining
// servers refuse immediately with 503, and a full slot pool refuses
// with 429 + Retry-After instead of queuing. The acquisition is a
// non-blocking single-communication select, so overload can never
// build an unbounded queue.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, &Error{Kind: KindDraining, Message: "server is draining"})
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			writeError(w, &Error{
				Kind:              KindOverload,
				Message:           fmt.Sprintf("all %d admission slots are busy", cap(s.sem)),
				RetryAfterSeconds: 1,
			})
			return
		}
		defer func() { <-s.sem }()
		h(w, r) //mclegal:writeset h is one of this server's own handlers, each individually proven inside the clone boundary
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, &Error{Kind: KindDraining, Message: "server is draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

// designInfo is one row of GET /designs.
type designInfo struct {
	Name     string `json:"name"`
	Cells    int    `json:"cells"`
	Movables int    `json:"movables"`
	Fences   int    `json:"fences"`
	Nets     int    `json:"nets"`
}

func (s *Server) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.designs))
	for name := range s.designs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]designInfo, 0, len(names))
	for _, name := range names {
		d := s.designs[name]
		out = append(out, designInfo{
			Name:     name,
			Cells:    len(d.Cells),
			Movables: d.MovableCount(),
			Fences:   len(d.Fences),
			Nets:     len(d.Nets),
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePutDesign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, perr := s.parseBody(r)
	if perr != nil {
		writeError(w, perr)
		return
	}
	s.mu.Lock()
	s.designs[name] = d
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, designInfo{
		Name:     name,
		Cells:    len(d.Cells),
		Movables: d.MovableCount(),
		Fences:   len(d.Fences),
		Nets:     len(d.Nets),
	})
}

func (s *Server) handleGetDesign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	d := s.designs[name]
	s.mu.RUnlock()
	if d == nil {
		writeError(w, &Error{Kind: KindNotFound, Message: fmt.Sprintf("no resident design %q", name)})
		return
	}
	// Resident designs are immutable, so serializing without the lock
	// is safe.
	writeDesignBody(w, d)
}

func (s *Server) handleDeleteDesign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.designs[name]
	delete(s.designs, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, &Error{Kind: KindNotFound, Message: fmt.Sprintf("no resident design %q", name)})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLegalize(w http.ResponseWriter, r *http.Request) {
	p, perr := s.parseRunParams(r)
	if perr != nil {
		writeError(w, perr)
		return
	}
	d, perr := s.requestDesign(r)
	if perr != nil {
		writeError(w, perr)
		return
	}
	ctx, cancel := s.runContext(r, p.timeout)
	defer cancel()

	opt := p.opt
	if s.cfg.FaultHook != nil {
		opt.Faults = s.cfg.FaultHook(r)
	}
	res, err := flow.RunContext(ctx, d, opt)
	if err != nil {
		writeError(w, s.classifyRunError(r, res, err))
		return
	}

	h := w.Header()
	h.Set("X-Mclegal-Status", res.Status.String())
	h.Set("X-Mclegal-Score", strconv.FormatFloat(res.Score, 'f', 4, 64))
	h.Set("X-Mclegal-Hpwl", fmt.Sprintf("%d %d", res.HPWLBefore, res.HPWLAfter))
	h.Set("X-Mclegal-Gates", strconv.Itoa(len(res.Gates)))
	writeDesignBody(w, d)
}

// evaluateResponse is the JSON result of POST /evaluate.
type evaluateResponse struct {
	Cells          int     `json:"cells"`
	HPWLBefore     int64   `json:"hpwl_before"`
	HPWLAfter      int64   `json:"hpwl_after"`
	Score          float64 `json:"score"`
	AvgDispRows    float64 `json:"avg_disp_rows"`
	MaxDispRows    float64 `json:"max_disp_rows"`
	TotalDispSites float64 `json:"total_disp_sites"`
	PinViolations  int     `json:"pin_violations"`
	EdgeViolations int     `json:"edge_violations"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	d, perr := s.requestDesign(r)
	if perr != nil {
		writeError(w, perr)
		return
	}
	// HPWL-before is measured at the GP positions, on a scratch clone
	// so the scored placement is untouched.
	gp := d.Clone()
	gp.ResetToGP()
	res := flow.Evaluate(d, eval.HPWL(gp))
	writeJSON(w, http.StatusOK, evaluateResponse{
		Cells:          d.MovableCount(),
		HPWLBefore:     res.HPWLBefore,
		HPWLAfter:      res.HPWLAfter,
		Score:          res.Score,
		AvgDispRows:    res.Metrics.AvgDisp,
		MaxDispRows:    res.Metrics.MaxDisp,
		TotalDispSites: res.Metrics.TotalDispSites,
		PinViolations:  res.Violations.Pin(),
		EdgeViolations: res.Violations.EdgeSpacing,
	})
}

// auditResponse is the JSON result of POST /audit.
type auditResponse struct {
	Legal      bool     `json:"legal"`
	Violations int      `json:"violations"`
	Sample     []string `json:"sample,omitempty"`
}

// auditSampleCap bounds how many violations an audit response spells
// out; Violations always carries the full count.
const auditSampleCap = 20

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	d, perr := s.requestDesign(r)
	if perr != nil {
		writeError(w, perr)
		return
	}
	grid, err := seg.Build(d)
	if err != nil {
		writeError(w, &Error{Kind: KindInternal, Message: err.Error()})
		return
	}
	vs := eval.Audit(d, grid)
	resp := auditResponse{Legal: len(vs) == 0, Violations: len(vs)}
	for i, v := range vs {
		if i == auditSampleCap {
			break
		}
		resp.Sample = append(resp.Sample, v.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestDesign resolves the design a run request targets: a private
// clone of the resident design named in the path, or — on the
// name-less endpoints — the .mcl request body. Either way the caller
// owns the result and may mutate it freely.
func (s *Server) requestDesign(r *http.Request) (*model.Design, *Error) {
	if name := r.PathValue("name"); name != "" {
		s.mu.RLock()
		d := s.designs[name]
		s.mu.RUnlock()
		if d == nil {
			return nil, &Error{Kind: KindNotFound, Message: fmt.Sprintf("no resident design %q", name)}
		}
		return d.Clone(), nil
	}
	return s.parseBody(r)
}

// parseBody reads one .mcl design from the request body under the
// configured limits.
func (s *Server) parseBody(r *http.Request) (*model.Design, *Error) {
	d, err := bmark.ReadWithMode(r.Body, bmark.ModeStrict, bmark.WithLimits(s.cfg.Limits))
	if err != nil {
		var le *bmark.LimitError
		if errors.As(err, &le) {
			return nil, &Error{Kind: KindLimit, Message: err.Error()}
		}
		return nil, &Error{Kind: KindParse, Message: err.Error()}
	}
	return d, nil
}

// runParams is a run request's decoded query parameters.
type runParams struct {
	opt     flow.Options
	timeout time.Duration
}

// parseRunParams decodes the run options of a legalize request.
// Defaults are the robust-serving ones: gates on, fallback recovery,
// the server's configured worker/shard counts, and DefaultTimeout.
func (s *Server) parseRunParams(r *http.Request) (runParams, *Error) {
	q := r.URL.Query()
	p := runParams{
		opt: flow.Options{
			Workers:  s.cfg.Workers,
			Shards:   s.cfg.Shards,
			Verify:   true,
			Recovery: stage.RecoverFallback,
		},
		timeout: s.cfg.DefaultTimeout,
	}
	boolParam := func(key string, dst *bool) *Error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return &Error{Kind: KindBadRequest, Message: fmt.Sprintf("?%s=%q is not a boolean", key, v)}
		}
		*dst = b
		return nil
	}
	for _, bp := range []struct {
		key string
		dst *bool
	}{
		{"routability", &p.opt.Routability},
		{"total", &p.opt.TotalDisplacement},
		{"verify", &p.opt.Verify},
	} {
		if perr := boolParam(bp.key, bp.dst); perr != nil {
			return p, perr
		}
	}
	if v := q.Get("recovery"); v != "" {
		pol, err := stage.ParsePolicy(v)
		if err != nil {
			return p, &Error{Kind: KindBadRequest, Message: err.Error()}
		}
		p.opt.Recovery = pol
	}
	if v := q.Get("shards"); v != "" {
		n, err := flow.ParseShards(v)
		if err != nil {
			return p, &Error{Kind: KindBadRequest, Message: err.Error()}
		}
		p.opt.Shards = n
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, &Error{Kind: KindBadRequest, Message: fmt.Sprintf("?workers=%q is not a non-negative integer", v)}
		}
		p.opt.Workers = n
	}
	if v := q.Get("timeout"); v != "" {
		dur, err := time.ParseDuration(v)
		if err != nil || dur <= 0 {
			return p, &Error{Kind: KindBadRequest, Message: fmt.Sprintf("?timeout=%q is not a positive duration", v)}
		}
		p.timeout = dur
	}
	if p.timeout > s.cfg.MaxTimeout {
		p.timeout = s.cfg.MaxTimeout
	}
	return p, nil
}

// runContext derives a run's context: the request context (so a client
// going away cancels the run), additionally cancelled when the drain
// grace expires, under the request's deadline budget.
func (s *Server) runContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.workCtx, cancel)
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() {
		tcancel()
		stop()
		cancel()
	}
}

// classifyRunError turns a pipeline failure into the wire taxonomy,
// attaching the typed partial results (run status, gate reports) the
// failed run still produced.
func (s *Server) classifyRunError(r *http.Request, res flow.Result, err error) *Error {
	e := &Error{Message: err.Error(), Status: res.Status.String()}
	for _, g := range res.Gates {
		e.Gates = append(e.Gates, g.String())
	}
	var de *flow.DeadlineError
	var ge *stage.GateError
	switch {
	case errors.As(err, &de):
		e.Kind = KindDeadline
		e.Message = fmt.Sprintf("deadline budget expired after %v of work", de.Elapsed)
	case errors.As(err, &ge):
		e.Kind = KindGate
		e.Stage = ge.Report.Stage
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		e.Kind = KindCanceled
		e.Message = "client cancelled the request mid-run"
	case errors.Is(err, context.Canceled) && s.workCtx.Err() != nil:
		e.Kind = KindDraining
		e.Message = "drain grace expired mid-run"
	default:
		e.Kind = KindInternal
	}
	return e
}

// writeDesignBody streams d as the .mcl response body. bmark.Write
// checks every name before it writes a byte, so an unserializable
// design still gets a typed error; a write that fails later has lost
// its client, which the error cannot reach either.
func writeDesignBody(w http.ResponseWriter, d *model.Design) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := bmark.Write(w, d); err != nil {
		writeError(w, &Error{Kind: KindInternal, Message: err.Error()})
	}
}
