package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/faults"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/stage"
)

// testDesign is a small benchmark every endpoint test shares; pipeline
// runs on it finish in tens of milliseconds.
func testDesign(t testing.TB) *model.Design {
	t.Helper()
	return bmark.Generate(bmark.Params{
		Name: "serve-test", Seed: 11, Counts: [4]int{60, 8, 2, 1},
		Density: 0.5, NumFences: 1, FenceFrac: 0.5, NetFrac: 0.5,
	})
}

func designBytes(t testing.TB, d *model.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bmark.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// decodeError decodes and sanity-checks a typed error response: JSON
// envelope, a kind from the taxonomy, and a status code matching it.
func decodeError(t *testing.T, resp *http.Response) *Error {
	t.Helper()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	if body.Error == nil || body.Error.Kind == "" {
		t.Fatalf("error body lacks a kind: %+v", body)
	}
	if got := body.Error.Kind.HTTPStatus(); got != resp.StatusCode {
		t.Errorf("kind %q maps to %d but response status is %d", body.Error.Kind, got, resp.StatusCode)
	}
	return body.Error
}

func auditBytes(t *testing.T, data []byte) []string {
	t.Helper()
	d, err := bmark.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("response body is not a readable design: %v", err)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, v := range eval.Audit(d, grid) {
		out = append(out, v.String())
	}
	return out
}

func TestHealthzAndReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Kind != KindDraining {
		t.Errorf("draining readyz kind = %q, want %q", e.Kind, KindDraining)
	}
	// Liveness is not readiness: a draining server is still alive.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", resp2.StatusCode)
	}
}

func TestDesignLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := designBytes(t, testDesign(t))

	put, err := http.Post(ts.URL+"/designs/alpha", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var info designInfo
	if err := json.NewDecoder(put.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	put.Body.Close()
	if put.StatusCode != http.StatusCreated {
		t.Fatalf("PUT design = %d, want 201", put.StatusCode)
	}
	if info.Name != "alpha" || info.Movables == 0 {
		t.Errorf("design info = %+v", info)
	}

	list, err := http.Get(ts.URL + "/designs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []designInfo
	if err := json.NewDecoder(list.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(infos) != 1 || infos[0].Name != "alpha" {
		t.Errorf("design list = %+v, want [alpha]", infos)
	}

	get, err := http.Get(ts.URL + "/designs/alpha")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if !bytes.Equal(got, data) {
		t.Error("resident design does not round-trip byte-identically")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/designs/alpha", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE = %d, want 204", del.StatusCode)
	}

	miss, err := http.Get(ts.URL + "/designs/alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer miss.Body.Close()
	if e := decodeError(t, miss); e.Kind != KindNotFound {
		t.Errorf("deleted design kind = %q, want %q", e.Kind, KindNotFound)
	}
}

func TestLegalizeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	data := designBytes(t, testDesign(t))

	resp, err := http.Post(ts.URL+"/legalize", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legalize = %d: %s", resp.StatusCode, body)
	}
	if st := resp.Header.Get("X-Mclegal-Status"); st != "legal" {
		t.Errorf("X-Mclegal-Status = %q, want legal", st)
	}
	if resp.Header.Get("X-Mclegal-Score") == "" {
		t.Error("missing X-Mclegal-Score header")
	}
	if vs := auditBytes(t, body); len(vs) > 0 {
		t.Errorf("legalized response is not legal: %v", vs)
	}
}

func TestLegalizeResidentLeavesResidentUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	data := designBytes(t, testDesign(t))
	resp, err := http.Post(ts.URL+"/designs/alpha", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	leg, err := http.Post(ts.URL+"/legalize/alpha", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(leg.Body)
	leg.Body.Close()
	if leg.StatusCode != http.StatusOK {
		t.Fatalf("legalize/alpha = %d: %s", leg.StatusCode, body)
	}
	if vs := auditBytes(t, body); len(vs) > 0 {
		t.Errorf("legalized response is not legal: %v", vs)
	}

	// The resident copy must still be the original GP placement: runs
	// work on private clones.
	get, err := http.Get(ts.URL + "/designs/alpha")
	if err != nil {
		t.Fatal(err)
	}
	resident, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if !bytes.Equal(resident, data) {
		t.Error("legalizing a resident design mutated the resident copy")
	}
}

func TestLegalizeUnknownDesign(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/legalize/ghost", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if e := decodeError(t, resp); e.Kind != KindNotFound {
		t.Errorf("kind = %q, want %q", e.Kind, KindNotFound)
	}
}

func TestBadRunParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := designBytes(t, testDesign(t))
	for _, query := range []string{
		"?timeout=banana", "?timeout=-3s", "?recovery=yolo",
		"?workers=-1", "?shards=maybe", "?verify=perhaps",
	} {
		resp, err := http.Post(ts.URL+"/legalize"+query, "text/plain", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		e := decodeError(t, resp)
		resp.Body.Close()
		if e.Kind != KindBadRequest {
			t.Errorf("%s: kind = %q, want %q", query, e.Kind, KindBadRequest)
		}
	}
}

func TestParseAndLimitErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: bmark.Limits{MaxBytes: 256}})
	resp, err := http.Post(ts.URL+"/legalize", "text/plain", strings.NewReader("not a design"))
	if err != nil {
		t.Fatal(err)
	}
	e := decodeError(t, resp)
	resp.Body.Close()
	if e.Kind != KindParse {
		t.Errorf("garbage body kind = %q, want %q", e.Kind, KindParse)
	}

	big := designBytes(t, testDesign(t)) // far beyond 256 bytes
	resp2, err := http.Post(ts.URL+"/designs/big", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if e := decodeError(t, resp2); e.Kind != KindLimit {
		t.Errorf("oversized body kind = %q, want %q", e.Kind, KindLimit)
	}
}

func TestOverloadRefusesImmediately(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Occupy the only admission slot directly; the next run request
	// must be refused now, not queued.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	data := designBytes(t, testDesign(t))
	resp, err := http.Post(ts.URL+"/legalize", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp)
	if e.Kind != KindOverload {
		t.Fatalf("kind = %q, want %q", e.Kind, KindOverload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if e.RetryAfterSeconds <= 0 {
		t.Error("error body lacks retry_after_seconds")
	}
}

func TestStrictGateFailureOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		FaultHook: func(r *http.Request) *faults.Injector {
			return faults.New().Arm(faults.StageError(stage.NameMGL))
		},
	})
	data := designBytes(t, testDesign(t))
	resp, err := http.Post(ts.URL+"/legalize?recovery=strict", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp)
	if e.Kind != KindGate {
		t.Fatalf("kind = %q, want %q", e.Kind, KindGate)
	}
	if e.Stage != stage.NameMGL {
		t.Errorf("stage = %q, want %q", e.Stage, stage.NameMGL)
	}
	if len(e.Gates) == 0 {
		t.Error("gate failure carries no gate reports")
	}
}

func TestFallbackRecoveryOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		FaultHook: func(r *http.Request) *faults.Injector {
			return faults.New().Arm(faults.StageError(stage.NameMGL))
		},
	})
	data := designBytes(t, testDesign(t))
	resp, err := http.Post(ts.URL+"/legalize", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback run = %d: %s", resp.StatusCode, body)
	}
	if st := resp.Header.Get("X-Mclegal-Status"); st != "recovered" {
		t.Errorf("X-Mclegal-Status = %q, want recovered", st)
	}
	if g := resp.Header.Get("X-Mclegal-Gates"); g == "0" || g == "" {
		t.Errorf("X-Mclegal-Gates = %q, want >= 1", g)
	}
	if vs := auditBytes(t, body); len(vs) > 0 {
		t.Errorf("recovered response is not legal: %v", vs)
	}
}

func TestDeadlineBudgetExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	data := designBytes(t, testDesign(t))
	resp, err := http.Post(ts.URL+"/legalize?timeout=1ns", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp)
	if e.Kind != KindDeadline {
		t.Fatalf("kind = %q, want %q", e.Kind, KindDeadline)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
	if e.Status == "" {
		t.Error("deadline error lacks the typed partial-run status")
	}
}

// A client cancelling its own request is classified as KindCanceled —
// distinct from both deadline expiry and server drain. The handler is
// driven directly so the already-cancelled request context is
// observable server-side.
func TestClientCancelClassification(t *testing.T) {
	s := New(Config{Workers: 1})
	data := designBytes(t, testDesign(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/legalize", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", resp.StatusCode, statusClientClosedRequest, rec.Body.String())
	}
	if e := decodeError(t, resp); e.Kind != KindCanceled {
		t.Errorf("kind = %q, want %q", e.Kind, KindCanceled)
	}
}

// A panic in a handler is contained to its own request: the client
// gets a typed 500 and the server keeps serving.
func TestPanicContainment(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		FaultHook: func(r *http.Request) *faults.Injector {
			if r.URL.Query().Get("boom") != "" {
				panic("chaos hook detonated")
			}
			return nil
		},
	})
	data := designBytes(t, testDesign(t))

	resp, err := http.Post(ts.URL+"/legalize?boom=1", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	e := decodeError(t, resp)
	resp.Body.Close()
	if e.Kind != KindPanic {
		t.Fatalf("kind = %q, want %q", e.Kind, KindPanic)
	}

	resp2, err := http.Post(ts.URL+"/legalize", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after a contained panic = %d, want 200", resp2.StatusCode)
	}
}

func TestEvaluateAndAudit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	data := designBytes(t, testDesign(t))

	leg, err := http.Post(ts.URL+"/legalize", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	legal, _ := io.ReadAll(leg.Body)
	leg.Body.Close()
	if leg.StatusCode != http.StatusOK {
		t.Fatalf("legalize = %d", leg.StatusCode)
	}

	ev, err := http.Post(ts.URL+"/evaluate", "text/plain", bytes.NewReader(legal))
	if err != nil {
		t.Fatal(err)
	}
	var evr evaluateResponse
	if err := json.NewDecoder(ev.Body).Decode(&evr); err != nil {
		t.Fatal(err)
	}
	ev.Body.Close()
	if ev.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d", ev.StatusCode)
	}
	if evr.Cells == 0 || evr.HPWLAfter == 0 {
		t.Errorf("evaluate response looks empty: %+v", evr)
	}

	au, err := http.Post(ts.URL+"/audit", "text/plain", bytes.NewReader(legal))
	if err != nil {
		t.Fatal(err)
	}
	var aur auditResponse
	if err := json.NewDecoder(au.Body).Decode(&aur); err != nil {
		t.Fatal(err)
	}
	au.Body.Close()
	if !aur.Legal || aur.Violations != 0 {
		t.Errorf("audit of a legalized design = %+v, want legal", aur)
	}
	if aur.Legal != (aur.Violations == 0) {
		t.Errorf("audit response is self-inconsistent: %+v", aur)
	}
}

// A movable cell above the core rows is a placement fault to score, not
// a server fault: evaluate answers 200.
func TestEvaluateOutOfCoreCell(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	d := testDesign(t)
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			d.Cells[i].Y = d.Tech.NumRows + 3
			break
		}
	}
	resp, err := http.Post(ts.URL+"/evaluate", "text/plain", bytes.NewReader(designBytes(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("evaluate = %d: %s", resp.StatusCode, body)
	}
}

// Design bodies stream straight to the client, yet a design the format
// cannot carry still gets a typed error: the names are checked before
// the first byte goes out.
func TestUnserializableDesignBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	d := testDesign(t)
	d.Cells[0].Name = "two words"
	s.AddDesign("bad", d)
	resp, err := http.Get(ts.URL + "/designs/bad")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if e := decodeError(t, resp); e.Kind != KindInternal {
		t.Errorf("kind = %q, want %q", e.Kind, KindInternal)
	}
}
