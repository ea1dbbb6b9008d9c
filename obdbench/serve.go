package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/serve"
)

// The serve-mix stream is cut into blocks of 20 requests holding exactly
// 15 repeats of the primed grade bodies, 4 unique c432 grades and 1
// unique ATPG request, in a seeded order. Fixing each block's mix keeps
// the class shares exact in every run, so the seed moves only the order
// and the contents.
//
// The mix is an assumption, not a measurement: no record of real /v1
// traffic exists. Only the 64 pairs per grade body follow the repository's
// own BenchmarkServeGrade. The shares, the 16 hot bodies and the 60-gate
// ATPG circuits were chosen so that the hits set the median and the ATPG
// misses the p99 tail. The hot bodies
// fit the server's default 256-entry cache, so the hit share holds by
// construction.
const (
	serveBlock      = 20
	serveBlockHits  = 15
	serveBlockGrade = 4
	serveHot        = 16 // distinct primed grade bodies
	servePairs      = 64 // pairs per grade body
	serveReplays    = 200
)

// Request classes of serve-mix.
const (
	classHit   = "hit"
	classGrade = "grade-miss"
	classATPG  = "atpg-miss"
)

type serveRequest struct {
	class string
	path  string
	body  []byte
	hot   int // primed body index (hits)
}

type serveRun struct {
	seed    int64
	c432    string   // the native-format netlist every grade body carries
	inputs  []string // c432's inputs, in order
	faults  int      // c432's OBD universe size
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	hot     [][]byte
	primed  [][]byte // each hot body's first (computed) response
	primeAt map[string]int64
	ins     map[string]string
}

// mix derives the seed of one stream element from the run seed, a
// stream tag and the element's index (splitmix64 finalizer).
func mix(seed int64, tag, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

const (
	tagBlock = iota + 1
	tagHot
	tagGrade
	tagATPG
)

func setupServe(seed int64) (instance, error) {
	b, err := os.ReadFile(c432Path)
	if err != nil {
		return nil, err
	}
	c, err := logic.ParseBenchString(string(b))
	if err != nil {
		return nil, err
	}
	faults, _ := fault.OBDUniverse(c)
	s := &serveRun{seed: seed, c432: logic.Format(c), inputs: c.Inputs, faults: len(faults)}
	for k := 0; k < serveHot; k++ {
		body, err := s.gradeBody(rand.New(rand.NewSource(mix(seed, tagHot, k))))
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, body)
	}
	if s.srv, err = serve.New(serve.Config{Workers: 1}); err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = s.ts.Client()
	for k, body := range s.hot {
		resp, err := s.post("/v1/grade", body)
		if err != nil {
			s.close()
			return nil, err
		}
		if err := s.checkGrade(resp, "computed"); err != nil {
			s.close()
			return nil, fmt.Errorf("priming hot body %d: %w", k, err)
		}
		s.primed = append(s.primed, resp.body)
	}
	s.primeAt = s.srv.Snapshot()
	stream := sha256.New()
	for i := 0; i < serveReplays; i++ {
		r, err := s.request(i)
		if err != nil {
			s.close()
			return nil, err
		}
		fmt.Fprintf(stream, "%s %s %d\n", r.class, r.path, len(r.body))
		stream.Write(r.body)
	}
	s.ins = map[string]string{
		"hot_bodies_sha256":    sha(string(bytes.Join(s.hot, []byte{0}))),
		"stream_prefix_sha256": fmt.Sprintf("%x", stream.Sum(nil)),
	}
	return s, nil
}

func (s *serveRun) gradeBody(rng *rand.Rand) ([]byte, error) {
	req := serve.GradeRequest{Netlist: s.c432, Model: "obd"}
	for _, tp := range completePairs(rng, s.inputs, servePairs) {
		var v1, v2 []byte
		for _, in := range s.inputs {
			v1 = append(v1, tp.V1[in].String()...)
			v2 = append(v2, tp.V2[in].String()...)
		}
		req.Tests = append(req.Tests, serve.WirePair{V1: string(v1), V2: string(v2)})
	}
	return json.Marshal(req)
}

// slot returns the class of stream element i and, for hits, which
// primed body it repeats.
func (s *serveRun) slot(i int) (class string, hot int) {
	rng := rand.New(rand.NewSource(mix(s.seed, tagBlock, i/serveBlock)))
	order := rng.Perm(serveBlock)
	var hots [serveBlockHits]int
	for j := range hots {
		hots[j] = rng.Intn(serveHot)
	}
	k := order[i%serveBlock]
	switch {
	case k < serveBlockHits:
		return classHit, hots[k]
	case k < serveBlockHits+serveBlockGrade:
		return classGrade, 0
	default:
		return classATPG, 0
	}
}

func (s *serveRun) class(i int) string {
	c, _ := s.slot(i)
	return c
}

// request builds stream element i.
func (s *serveRun) request(i int) (*serveRequest, error) {
	class, hot := s.slot(i)
	r := &serveRequest{class: class, path: "/v1/grade", hot: hot}
	var err error
	switch class {
	case classHit:
		r.body = s.hot[hot]
	case classGrade:
		r.body, err = s.gradeBody(rand.New(rand.NewSource(mix(s.seed, tagGrade, i))))
	case classATPG:
		rng := rand.New(rand.NewSource(mix(s.seed, tagATPG, i)))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 8, Gates: 60, Primitive: true})
		r.path = "/v1/atpg"
		r.body, err = json.Marshal(serve.ATPGRequest{Netlist: logic.Format(c), Model: "obd"})
	}
	return r, err
}

func (s *serveRun) input(i int) (any, error) { return s.request(i) }

type serveResponse struct {
	status int
	source string
	body   []byte
}

func (s *serveRun) post(path string, body []byte) (*serveResponse, error) {
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &serveResponse{status: resp.StatusCode, source: resp.Header.Get("Obdserve-Source"), body: b}, nil
}

func (s *serveRun) op(i int, in any, tr *tracer) error {
	r := in.(*serveRequest)
	var resp *serveResponse
	var err error
	if tr == nil {
		resp, err = s.post(r.path, r.body)
	} else {
		root := tr.start(i, 0, "bench.op")
		err = tr.stage(i, root, "serve.request", func() (err error) {
			resp, err = s.post(r.path, r.body)
			return err
		})
		tr.stop(root)
	}
	if err != nil {
		return err
	}
	switch r.class {
	case classHit:
		if resp.status != http.StatusOK || resp.source != "cache" || !bytes.Equal(resp.body, s.primed[r.hot]) {
			return fmt.Errorf("hit on primed body %d: status %d, source %q, body differs from the primed response: %v",
				r.hot, resp.status, resp.source, !bytes.Equal(resp.body, s.primed[r.hot]))
		}
		return nil
	case classGrade:
		return s.checkGrade(resp, "computed")
	default:
		if resp.status != http.StatusOK || resp.source != "computed" {
			return fmt.Errorf("atpg: status %d, source %q: %s", resp.status, resp.source, resp.body)
		}
		var ar serve.ATPGResponse
		if err := json.Unmarshal(resp.body, &ar); err != nil {
			return err
		}
		if ar.Faults == 0 || ar.Detected+ar.Untestable+ar.Aborted != ar.Faults || ar.Errored != 0 {
			return fmt.Errorf("atpg: %d detected + %d untestable + %d aborted of %d faults, %d errored",
				ar.Detected, ar.Untestable, ar.Aborted, ar.Faults, ar.Errored)
		}
		return nil
	}
}

func (s *serveRun) checkGrade(resp *serveResponse, source string) error {
	if resp.status != http.StatusOK || resp.source != source {
		return fmt.Errorf("grade: status %d, source %q, want 200 %q: %s", resp.status, resp.source, source, resp.body)
	}
	var gr serve.GradeResponse
	if err := json.Unmarshal(resp.body, &gr); err != nil {
		return err
	}
	if gr.Faults != s.faults || gr.Coverage.Total != s.faults || gr.Tests != servePairs {
		return fmt.Errorf("grade: %d faults, coverage total %d, %d tests; want %d, %d, %d",
			gr.Faults, gr.Coverage.Total, gr.Tests, s.faults, s.faults, servePairs)
	}
	return nil
}

// probe replays the first stream bodies through the request-path calls
// every /v1 request makes before its cache lookup, one span each: decode,
// parse, validate, fingerprint, digest (canonical Format + sha256) and
// the OBD universe. What they leave of the request time is HTTP, the mux,
// the LRU and, on misses, the compute (serve.other_pct).
func (s *serveRun) probe(tr *tracer) error {
	snap := s.srv.Snapshot()
	hits := snap["cache_hits"] - s.primeAt["cache_hits"]
	misses := snap["cache_misses"] - s.primeAt["cache_misses"]
	if hits+misses > 0 {
		tr.set("serve.cache_hit_pct", 100*float64(hits)/float64(hits+misses))
	}
	for i := 0; i < serveReplays; i++ {
		r, err := s.request(i)
		if err != nil {
			return err
		}
		root := tr.start(-1, 0, "bench.replay")
		var netlist string
		err = tr.stage(-1, root, "serve.decode", func() error {
			if r.path == "/v1/atpg" {
				var req serve.ATPGRequest
				err := json.Unmarshal(r.body, &req)
				netlist = req.Netlist
				return err
			}
			var req serve.GradeRequest
			err := json.Unmarshal(r.body, &req)
			netlist = req.Netlist
			return err
		})
		var c *logic.Circuit
		if err == nil {
			err = tr.stage(-1, root, "logic.parse", func() (err error) {
				c, err = logic.ParseLenientString(netlist)
				return err
			})
		}
		if err == nil {
			err = tr.stage(-1, root, "logic.validate", c.Validate)
		}
		if err == nil {
			err = tr.stage(-1, root, "logic.fingerprint", func() error {
				_, err := c.Fingerprint()
				return err
			})
		}
		if err == nil {
			tr.stage(-1, root, "logic.digest", func() error {
				sha256.Sum256([]byte(logic.Format(c)))
				return nil
			})
			tr.stage(-1, root, "fault.universe", func() error {
				fault.OBDUniverse(c)
				return nil
			})
		}
		tr.stop(root)
		if err != nil {
			return fmt.Errorf("replaying stream element %d: %w", i, err)
		}
	}
	return nil
}

// finish checks that no request was refused or failed server-side.
func (s *serveRun) finish() error {
	snap := s.srv.Snapshot()
	for _, k := range []string{"rejected", "client_errors", "server_errors", "canceled", "coalesced"} {
		if snap[k] != 0 {
			return fmt.Errorf("server counted %d %s", snap[k], k)
		}
	}
	return nil
}

func (s *serveRun) digests() map[string]string { return s.ins }

func (s *serveRun) close() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
