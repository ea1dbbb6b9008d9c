package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"gobd/internal/jobs"
)

// jobMissionBody is the wire spec used across the job tests.
func jobMissionBody() JobSubmitRequest {
	return JobSubmitRequest{
		Kind:    jobs.KindMission,
		Netlist: nand2,
		Mission: &jobs.MissionSpec{Seed: 7, Chips: 8, Duration: 1000, FaultRate: 2, PerChip: true},
	}
}

func newJobServer(t *testing.T, dataDir string) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, Config{DataDir: dataDir, SegmentChips: 3, SegmentFaults: 4})
	t.Cleanup(s.Close)
	return s, ts.URL
}

// readAll drains and closes a GET response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pollJob polls GET /v1/jobs/{id} until the wanted state.
func pollJob(t *testing.T, url, id, want string) JobResponse {
	t.Helper()
	for i := 0; i < 2000; i++ {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if string(snap.State) == want {
			return snap
		}
		if snap.State == jobs.StateFailed && want != "failed" {
			t.Fatalf("job failed: %s", snap.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobResponse{}
}

// TestJobRoundTripMatchesSync: submit→poll→fetch over HTTP, and the job
// artifact is byte-identical to the synchronous /v1/mission response
// for the same canonical request — the extension of the determinism
// contract to the durable path.
func TestJobRoundTripMatchesSync(t *testing.T) {
	_, url := newJobServer(t, t.TempDir())

	spec := jobMissionBody()
	status, body, _ := post(t, url+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, body)
	}
	var snap JobResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Kind != jobs.KindMission || snap.Total != 8 {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	pollJob(t, url, snap.ID, "done")

	resp, err := http.Get(url + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	artifact := readAll(t, resp)
	if resp.StatusCode != 200 || resp.Header.Get("Obdserve-Source") != "job" {
		t.Fatalf("result status=%d source=%q", resp.StatusCode, resp.Header.Get("Obdserve-Source"))
	}

	ms := spec.Mission
	status, syncBody, _ := post(t, url+"/v1/mission", MissionRequest{
		Netlist: spec.Netlist, Seed: ms.Seed, Chips: ms.Chips, Duration: ms.Duration,
		FaultRate: ms.FaultRate, PerChip: ms.PerChip,
	})
	if status != 200 {
		t.Fatalf("sync mission status = %d: %s", status, syncBody)
	}
	if !bytes.Equal(artifact, syncBody) {
		t.Fatalf("job artifact diverges from synchronous response:\n job %s\nsync %s", artifact, syncBody)
	}

	// Resubmitting the same spec dedupes onto the done job.
	status, body, _ = post(t, url+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", status)
	}
	var again JobResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != snap.ID || again.State != jobs.StateDone {
		t.Fatalf("resubmit = %+v", again)
	}
}

// nand8 is a two-level XOR parity of three inputs in eight NANDs: 32 OBD
// faults and 22 transition and 22 stuck-at faults, so a job with
// SegmentFaults 4 commits in 8, 6 and 6 segments.
const nand8 = `circuit nand8
input a b c
output y
nand g1 n1 a b
nand g2 n2 a n1
nand g3 n3 b n1
nand g4 x n2 n3
nand g5 n5 x c
nand g6 n6 x n5
nand g7 n7 c n5
nand g8 y n6 n7
`

// TestATPGJobMatchesSync: an ATPG job commits its test set through the
// scheduler's Resume*TestsCtx in SegmentFaults-sized segments, and its
// artifact is byte-identical to the /v1/atpg body, which runs
// Generate*TestsCtx in one pass, for every combinational model.
func TestATPGJobMatchesSync(t *testing.T) {
	_, url := newJobServer(t, t.TempDir())
	for _, tc := range []struct {
		model  string
		faults int
	}{{"obd", 32}, {"transition", 22}, {"stuckat", 22}} {
		model, faults := tc.model, tc.faults
		spec := JobSubmitRequest{Kind: jobs.KindATPG, Netlist: nand8, ATPG: &jobs.ATPGSpec{Model: model}}
		status, body, _ := post(t, url+"/v1/jobs", spec)
		if status != http.StatusAccepted {
			t.Fatalf("%s: submit status = %d: %s", model, status, body)
		}
		var snap JobResponse
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Kind != jobs.KindATPG || snap.Total != faults {
			t.Fatalf("%s: submit snapshot = %+v, want %d faults", model, snap, faults)
		}
		done := pollJob(t, url, snap.ID, "done")
		if done.Committed != faults {
			t.Fatalf("%s: committed %d of %d faults", model, done.Committed, faults)
		}
		resp, err := http.Get(url + "/v1/jobs/" + snap.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		artifact := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: result status = %d: %s", model, resp.StatusCode, artifact)
		}
		status, syncBody, _ := post(t, url+"/v1/atpg", ATPGRequest{Netlist: nand8, Model: model})
		if status != 200 {
			t.Fatalf("%s: sync atpg status = %d: %s", model, status, syncBody)
		}
		if !bytes.Equal(artifact, syncBody) {
			t.Fatalf("%s: job artifact diverges from synchronous response:\n job %s\nsync %s", model, artifact, syncBody)
		}
	}
}

// TestJobErrorPaths: the typed wire errors of the job endpoints.
func TestJobErrorPaths(t *testing.T) {
	_, url := newJobServer(t, t.TempDir())

	// Unknown IDs are 404 job-not-found everywhere.
	resp, err := http.Get(url + "/v1/jobs/jdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp.StatusCode, readAll(t, resp), 404, CodeJobNotFound)
	resp, err = http.Get(url + "/v1/jobs/jdeadbeef/result")
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp.StatusCode, readAll(t, resp), 404, CodeJobNotFound)
	status, body, _ := post(t, url+"/v1/jobs/jdeadbeef/cancel", struct{}{})
	wantErrorCode(t, status, body, 404, CodeJobNotFound)

	// Invalid specs are 400s.
	status, body, _ = post(t, url+"/v1/jobs", JobSubmitRequest{Kind: "bake", Netlist: nand2})
	wantErrorCode(t, status, body, 400, CodeBadRequest)
	status, body, _ = post(t, url+"/v1/jobs", JobSubmitRequest{Kind: jobs.KindMission, Netlist: "circuit g\nbogus\n",
		Mission: &jobs.MissionSpec{Chips: 1, Duration: 1}})
	wantErrorCode(t, status, body, 400, CodeBadRequest)

	// Wrong method on the collection is a 405 from the method router.
	resp, err = http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

// TestJobsDisabledWithoutDataDir: an in-memory server has no job
// routes at all.
func TestJobsDisabledWithoutDataDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, _ := post(t, ts.URL+"/v1/jobs", jobMissionBody())
	if status != http.StatusNotFound {
		t.Fatalf("POST /v1/jobs without DataDir = %d, want 404", status)
	}
}

// TestDrainThenRestartCompletesJob: a job submitted before SIGTERM-style
// drain survives it — /healthz flips to draining, new submissions get
// 503, and a fresh server over the same data directory finishes the job
// with the same artifact bytes an undisturbed server produces.
func TestDrainThenRestartCompletesJob(t *testing.T) {
	// Reference artifact from an undisturbed server.
	_, refURL := newJobServer(t, t.TempDir())
	status, body, _ := post(t, refURL+"/v1/jobs", jobMissionBody())
	if status != http.StatusAccepted {
		t.Fatalf("ref submit = %d", status)
	}
	var refSnap JobResponse
	if err := json.Unmarshal(body, &refSnap); err != nil {
		t.Fatal(err)
	}
	pollJob(t, refURL, refSnap.ID, "done")
	resp, err := http.Get(refURL + "/v1/jobs/" + refSnap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, resp)

	dir := t.TempDir()
	s, url := newJobServer(t, dir)
	status, body, _ = post(t, url+"/v1/jobs", jobMissionBody())
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", status, body)
	}
	var snap JobResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainJobs(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hb, []byte(`"draining"`)) {
		t.Fatalf("healthz while draining: %d %s", resp.StatusCode, hb)
	}
	status, body, _ = post(t, url+"/v1/jobs", jobMissionBody())
	wantErrorCode(t, status, body, 503, CodeDraining)
	s.Close()

	// "Restart": a fresh server over the same data directory.
	_, url2 := newJobServer(t, dir)
	done := pollJob(t, url2, snap.ID, "done")
	if done.ID != snap.ID {
		t.Fatalf("restarted job id = %s", done.ID)
	}
	resp, err = http.Get(url2 + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after drain+restart differs from undisturbed server")
	}
}

// TestStoreIsACrossRestartCache: a synchronous response computed by one
// server process is served from the durable store by the next one,
// byte-identically, without recomputing.
func TestStoreIsACrossRestartCache(t *testing.T) {
	dir := t.TempDir()
	_, url := newJobServer(t, dir)
	req := GradeRequest{Netlist: nand2, Tests: allPairs()}
	status, want, _ := post(t, url+"/v1/grade", req)
	if status != 200 {
		t.Fatalf("grade = %d", status)
	}

	_, url2 := newJobServer(t, dir)
	respStatus, got, resp := post(t, url2+"/v1/grade", req)
	if respStatus != 200 {
		t.Fatalf("grade after restart = %d", respStatus)
	}
	if src := resp.Header.Get("Obdserve-Source"); src != "store" {
		t.Fatalf("Obdserve-Source = %q, want store", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored response differs across restart")
	}

	// The durable gauges are visible on /metrics.
	mresp, err := http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := readAll(t, mresp)
	for _, key := range []string{`"store_hits"`, `"store_objects"`, `"jobs_queued"`, `"jobs_checkpoints"`} {
		if !bytes.Contains(mb, []byte(key)) {
			t.Fatalf("/metrics missing %s:\n%s", key, mb)
		}
	}
}
