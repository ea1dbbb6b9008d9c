package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// nand2 is the smallest interesting DUT: 4 OBD faults, all testable.
const nand2 = "circuit g\ninput a b\noutput y\nnand g1 y a b\n"

// allPairs enumerates every ordered two-pattern over two inputs — an
// exhaustive (and therefore 100%-coverage) OBD test set for nand2.
func allPairs() []WirePair {
	vecs := []string{"00", "01", "10", "11"}
	var out []WirePair
	for _, v1 := range vecs {
		for _, v2 := range vecs {
			out = append(out, WirePair{V1: v1, V2: v2})
		}
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status, body bytes and the response.
func post(t *testing.T, url string, req any) (int, []byte, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp
}

// wantErrorCode asserts a typed error body with the given status/code.
func wantErrorCode(t *testing.T, status int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if eb.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", eb.Error.Code, wantCode, eb.Error.Message)
	}
	if eb.Error.Message == "" {
		t.Fatal("error message empty")
	}
}

func TestServeGradeOBD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, resp := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if got := resp.Header.Get("Obdserve-Source"); got != "computed" {
		t.Fatalf("source = %q, want computed", got)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Model != ModelOBD || gr.Faults != 4 || gr.Tests != 16 {
		t.Fatalf("response %+v", gr)
	}
	if gr.Coverage.Detected != 4 || gr.Coverage.Ratio != 1 {
		t.Fatalf("coverage %+v", gr.Coverage)
	}
	if len(gr.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q", gr.Fingerprint)
	}
}

func TestServeGradeTransitionAndStuckAt(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Model: ModelTransition, Tests: allPairs()})
	if status != 200 {
		t.Fatalf("transition status %d: %s", status, body)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Model != ModelTransition || gr.Faults == 0 || gr.Coverage.Ratio != 1 {
		t.Fatalf("transition response %+v", gr)
	}

	status, body, _ = post(t, ts.URL+"/v1/grade", GradeRequest{
		Netlist: nand2, Model: ModelStuckAt, Patterns: []string{"00", "01", "10", "11"},
	})
	if status != 200 {
		t.Fatalf("stuckat status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Model != ModelStuckAt || gr.Faults == 0 || gr.Coverage.Ratio != 1 {
		t.Fatalf("stuckat response %+v", gr)
	}
}

func TestServeGradeTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/grade"

	// Netlist syntax error.
	status, body, _ := post(t, url, GradeRequest{Netlist: "circuit g\nbogus line\n"})
	wantErrorCode(t, status, body, 400, CodeBadNetlist)

	// Parses but fails structural validation (undriven output) — the wire
	// mirror of *atpg.InvalidCircuitError.
	status, body, _ = post(t, url, GradeRequest{Netlist: "circuit g\ninput a\noutput y\n"})
	wantErrorCode(t, status, body, 400, CodeInvalidCircuit)

	// Missing netlist.
	status, body, _ = post(t, url, GradeRequest{})
	wantErrorCode(t, status, body, 400, CodeBadRequest)

	// Unknown model.
	status, body, _ = post(t, url, GradeRequest{Netlist: nand2, Model: "parity"})
	wantErrorCode(t, status, body, 400, CodeBadRequest)

	// Model/field mismatch, both directions.
	status, body, _ = post(t, url, GradeRequest{Netlist: nand2, Model: ModelStuckAt, Tests: allPairs()})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
	status, body, _ = post(t, url, GradeRequest{Netlist: nand2, Patterns: []string{"00"}})
	wantErrorCode(t, status, body, 400, CodeBadRequest)

	// Bad vector width and bad bit character; the messages are wire
	// contract, shared with ReadTests through atpg.ParsePattern.
	for _, tc := range []struct {
		v1, msg string
	}{
		{"0", `tests[0].v1: vector "0" has 1 bits, circuit has 2 inputs`},
		{"02", `tests[0].v1: bad bit "2" in vector "02"`},
	} {
		status, body, _ = post(t, url, GradeRequest{Netlist: nand2, Tests: []WirePair{{V1: tc.v1, V2: "11"}}})
		wantErrorCode(t, status, body, 400, CodeBadRequest)
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Message != tc.msg {
			t.Errorf("v1 %q: message %q, want %q", tc.v1, eb.Error.Message, tc.msg)
		}
	}

	// Malformed JSON and unknown fields (strict decoding).
	resp, err := http.Post(url, "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrorCode(t, resp.StatusCode, raw, 400, CodeBadJSON)
	resp, err = http.Post(url, "application/json", strings.NewReader(`{"netlist": "x", "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrorCode(t, resp.StatusCode, raw, 400, CodeBadJSON)

	// Method contract.
	getResp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	wantErrorCode(t, getResp.StatusCode, raw, 405, CodeMethod)
	if getResp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", getResp.Header.Get("Allow"))
	}
}

func TestServePayloadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	status, body, _ := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	wantErrorCode(t, status, body, 413, CodePayloadTooLarge)
}

func TestServeATPG(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		model string
		prune bool
	}{{ModelOBD, false}, {ModelOBD, true}, {ModelTransition, false}, {ModelStuckAt, false}} {
		status, body, _ := post(t, ts.URL+"/v1/atpg", ATPGRequest{Netlist: nand2, Model: tc.model, Prune: tc.prune})
		if status != 200 {
			t.Fatalf("%s status %d: %s", tc.model, status, body)
		}
		var ar ATPGResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Faults == 0 || ar.Detected != ar.Faults || ar.Coverage.Ratio != 1 {
			t.Fatalf("%s response %+v", tc.model, ar)
		}
		if tc.model == ModelStuckAt {
			if len(ar.Patterns) == 0 || len(ar.Pairs) != 0 {
				t.Fatalf("stuckat should emit patterns, got %+v", ar)
			}
		} else if len(ar.Pairs) == 0 || len(ar.Patterns) != 0 {
			t.Fatalf("%s should emit pairs, got %+v", tc.model, ar)
		}
	}

	// Prune is an OBD-only knob.
	status, body, _ := post(t, ts.URL+"/v1/atpg", ATPGRequest{Netlist: nand2, Model: ModelStuckAt, Prune: true})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
	status, body, _ = post(t, ts.URL+"/v1/atpg", ATPGRequest{Netlist: nand2, MaxBacktracks: -1})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
}

func TestServeLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Healthy circuit: fingerprint present, no error diagnostics.
	status, body, _ := post(t, ts.URL+"/v1/lint", LintRequest{Netlist: nand2})
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var lr LintResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Report == nil || len(lr.Fingerprint) != 64 {
		t.Fatalf("response %+v", lr)
	}

	// The exact SAT stanza ("sat" on the wire) is always on for valid
	// circuits: every fault classified, nothing silently dropped.
	if lr.Report.Exact == nil {
		t.Fatal("lint response is missing the sat stanza")
	}
	if got := lr.Report.Exact.Testable + lr.Report.Exact.Untestable + lr.Report.Exact.Aborted; got != lr.Report.Exact.Faults {
		t.Fatalf("sat stanza counts do not decompose: %+v", lr.Report.Exact)
	}
	if len(lr.Report.Exact.Verdicts) != lr.Report.Exact.Faults {
		t.Fatalf("sat stanza has %d verdicts for %d faults", len(lr.Report.Exact.Verdicts), lr.Report.Exact.Faults)
	}

	// SkipFaults also skips the exact pass.
	status, body, _ = post(t, ts.URL+"/v1/lint", LintRequest{Netlist: nand2, SkipFaults: true})
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	lr = LintResponse{}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Report.Exact != nil {
		t.Fatal("skip_faults response still carries the sat stanza")
	}

	// Lint is the endpoint that must ACCEPT structurally invalid
	// circuits: same netlist that /v1/grade rejects with 400 gets a 200
	// report here, with diagnostics and no fingerprint.
	broken := "circuit g\ninput a\noutput y\n"
	status, body, _ = post(t, ts.URL+"/v1/lint", LintRequest{Netlist: broken})
	if status != 200 {
		t.Fatalf("broken circuit: status %d: %s", status, body)
	}
	lr = LintResponse{}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Fingerprint != "" {
		t.Fatalf("invalid circuit must not get a fingerprint, got %q", lr.Fingerprint)
	}
	if lr.Report == nil || lr.Report.Errors() == 0 {
		t.Fatalf("expected error diagnostics, got %+v", lr.Report)
	}

	// Syntax errors are still 400s.
	status, body, _ = post(t, ts.URL+"/v1/lint", LintRequest{Netlist: "not a netlist"})
	wantErrorCode(t, status, body, 400, CodeBadNetlist)
}

// TestServeLintConstantCertificate: the constants on the wire carry a
// checkable certificate. The full adder's one constant net, d3 = 1,
// decodes with a proof that netcheck.VerifyConstant accepts against the
// circuit parsed from the posted netlist.
func TestServeLintConstantCertificate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	netlist := logic.Format(cells.FullAdderSumLogic())
	status, body, _ := post(t, ts.URL+"/v1/lint", LintRequest{Netlist: netlist})
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var lr LintResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	ks := lr.Report.Constants
	if len(ks) != 1 || ks[0].Net != "d3" || ks[0].Val != logic.One {
		t.Fatalf("constants = %+v, want exactly [d3=1]", ks)
	}
	c, err := logic.Parse(strings.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	if err := netcheck.VerifyConstant(c, ks[0]); err != nil {
		t.Fatalf("decoded certificate does not verify: %v", err)
	}
}

func TestServeMission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MissionRequest{Netlist: nand2, Seed: 7, Chips: 8, Duration: 1000, FaultRate: 1}
	status, body, _ := post(t, ts.URL+"/v1/mission", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var mr MissionResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Report == nil || mr.Report.Chips != 8 || mr.Report.Complete != 8 {
		t.Fatalf("report %+v", mr.Report)
	}

	// Config errors surface as 400s, chip cap enforced server-side.
	status, body, _ = post(t, ts.URL+"/v1/mission", MissionRequest{Netlist: nand2, Chips: 0, Duration: 10})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
	status, body, _ = post(t, ts.URL+"/v1/mission", MissionRequest{Netlist: nand2, Chips: 1 << 30, Duration: 10, FaultRate: 1})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
	status, body, _ = post(t, ts.URL+"/v1/mission", MissionRequest{Netlist: nand2, Chips: 2, Duration: 10, FaultRate: 1, Adversity: "bogus=1"})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
}

func TestServeHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("healthz %d %s", resp.StatusCode, hb)
	}

	// One request, then the counters must reflect it.
	post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]int64
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v (%s)", err, mb)
	}
	for _, k := range []string{"requests", "computed", "cache_misses", "requests_grade", "in_flight", "cache_entries", "sched_pairs"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("metrics missing %q: %s", k, mb)
		}
	}
	if snap["requests"] != 1 || snap["computed"] != 1 || snap["cache_entries"] != 1 {
		t.Fatalf("unexpected counters: %s", mb)
	}
	if s.Metrics().Requests.Value() != 1 {
		t.Fatal("instance metrics disagree with /metrics")
	}
}

func TestServeQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	// Occupy the only admission slot directly — deterministic saturation
	// without timing games.
	if !s.queue.tryAcquire() {
		t.Fatal("fresh queue should have a slot")
	}
	defer s.queue.release()

	status, body, resp := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	wantErrorCode(t, status, body, 429, CodeQueueFull)
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if s.Metrics().Rejected.Value() != 1 {
		t.Fatalf("rejected = %d", s.Metrics().Rejected.Value())
	}

	// Cache hits bypass admission: warm the cache with a free slot, then
	// saturate again and observe the hit still served.
	s.queue.release()
	if st, b, _ := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()}); st != 200 {
		t.Fatalf("warming failed: %d %s", st, b)
	}
	if !s.queue.tryAcquire() {
		t.Fatal("slot should be free again")
	}
	status, _, resp = post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	if status != 200 || resp.Header.Get("Obdserve-Source") != "cache" {
		t.Fatalf("saturated cache hit: %d source %q", status, resp.Header.Get("Obdserve-Source"))
	}
}

func TestServeShuttingDown(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Close()
	status, body, _ := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: nand2, Tests: allPairs()})
	wantErrorCode(t, status, body, 503, CodeShuttingDown)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz after Close = %d", resp.StatusCode)
	}
}

// TestServeCanonicalizationSharesCache checks the digest normalization:
// a lowercase 'x' don't-care and an uppercase 'X' are the same workload
// and must share one cache entry.
func TestServeCanonicalizationSharesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	r1 := GradeRequest{Netlist: nand2, Tests: []WirePair{{V1: "0X", V2: "11"}}}
	r2 := GradeRequest{Netlist: nand2, Tests: []WirePair{{V1: "0x", V2: "11"}}}
	st1, b1, _ := post(t, ts.URL+"/v1/grade", r1)
	st2, b2, resp2 := post(t, ts.URL+"/v1/grade", r2)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("status %d %d", st1, st2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("bodies differ:\n%s\n%s", b1, b2)
	}
	if resp2.Header.Get("Obdserve-Source") != "cache" {
		t.Fatalf("second spelling should hit the cache, got %q", resp2.Header.Get("Obdserve-Source"))
	}
	if s.Metrics().Computed.Value() != 1 {
		t.Fatalf("computed = %d, want 1", s.Metrics().Computed.Value())
	}

	// Renamed nets share a fingerprint but are a DIFFERENT workload
	// (fault names derive from gate names) — they must not collide.
	renamed := "circuit g2\ninput a b\noutput out\nnand u1 out a b\n"
	st3, b3, _ := post(t, ts.URL+"/v1/grade", GradeRequest{Netlist: renamed, Tests: []WirePair{{V1: "0X", V2: "11"}}})
	if st3 != 200 {
		t.Fatalf("status %d", st3)
	}
	var g1, g3 GradeResponse
	if err := json.Unmarshal(b1, &g1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b3, &g3); err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint != g3.Fingerprint {
		t.Fatal("isomorphic circuits should share a fingerprint")
	}
	if bytes.Equal(b1, b3) {
		t.Fatal("renamed circuit must not be served from the other's cache entry")
	}
}

// TestServeLRUEviction exercises the bounded cache: capacity 2, three
// distinct workloads, the oldest falls out.
func TestServeLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	reqFor := func(i int) GradeRequest {
		return GradeRequest{Netlist: nand2, Tests: []WirePair{{V1: fmt.Sprintf("%02b", i), V2: "11"}}}
	}
	for i := 0; i < 3; i++ {
		if st, b, _ := post(t, ts.URL+"/v1/grade", reqFor(i)); st != 200 {
			t.Fatalf("req %d: %d %s", i, st, b)
		}
	}
	if entries, _ := s.cache.stats(); entries != 2 {
		t.Fatalf("cache entries = %d, want 2", entries)
	}
	// Workload 0 was evicted: re-requesting recomputes.
	_, _, resp := post(t, ts.URL+"/v1/grade", reqFor(0))
	if got := resp.Header.Get("Obdserve-Source"); got != "computed" {
		t.Fatalf("evicted entry source = %q, want computed", got)
	}
	// Workload 2 is still warm.
	_, _, resp = post(t, ts.URL+"/v1/grade", reqFor(2))
	if got := resp.Header.Get("Obdserve-Source"); got != "cache" {
		t.Fatalf("warm entry source = %q, want cache", got)
	}
}
