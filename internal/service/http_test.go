package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const employeesCSV = `pos,exp,sal
secr,2,45
secr,3,50
secr,4,55
mngr,4,70
mngr,5,75
mngr,6,80
direc,6,100
direc,7,110
direc,8,120
`

func doJSON(t *testing.T, client *http.Client, method, url string, body io.Reader, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

func pollJob(t *testing.T, client *http.Client, base, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		code, raw := doJSON(t, client, http.MethodGet, base+"/jobs/"+id, nil, &v)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d: %s", id, code, raw)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// TestServerEndToEnd drives the full service lifecycle over HTTP on an
// ephemeral port: upload a CSV, submit two identical jobs (the second must
// be a cache hit, visible in /stats), then cancel a long-running job and
// observe the canceled state with the worker freed.
func TestServerEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	defer srv.Close()
	client := srv.Client()

	// Liveness (the body also carries queue observations for routers).
	var health HealthView
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if health.Status != "ok" {
		t.Fatalf("/healthz = %+v", health)
	}

	// Upload.
	var info DatasetInfo
	code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/datasets?name=employees",
		strings.NewReader(employeesCSV), &info)
	if code != http.StatusCreated {
		t.Fatalf("POST /datasets status %d: %s", code, raw)
	}
	if info.Rows != 9 || info.Cols != 3 {
		t.Fatalf("dataset info = %+v", info)
	}

	// Idempotent re-upload deduplicates.
	var dup DatasetInfo
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/datasets",
		strings.NewReader(employeesCSV), &dup); code != http.StatusOK {
		t.Fatalf("duplicate upload status %d, want 200", code)
	}
	if dup.ID != info.ID {
		t.Fatalf("duplicate upload id %q != %q", dup.ID, info.ID)
	}

	// Two identical jobs: the first validates, the second is a cache hit.
	jobBody := fmt.Sprintf(`{"datasetId": %q, "options": {"threshold": 0.12, "includeOFDs": true}}`, info.ID)
	var j1, j2 JobView
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(jobBody), &j1); code != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d: %s", code, raw)
	}
	done1 := pollJob(t, client, srv.URL, j1.ID, JobDone)
	if done1.Report == nil || len(done1.Report.OCs) == 0 {
		t.Fatalf("job 1 report missing or empty: %+v", done1)
	}
	found := false
	for _, oc := range done1.Report.OCs {
		if oc.A == "exp" && oc.B == "sal" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected {pos}: exp ∼ sal among OCs: %+v", done1.Report.OCs)
	}

	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(jobBody), &j2); code != http.StatusAccepted {
		t.Fatalf("POST /jobs (2) status %d: %s", code, raw)
	}
	done2 := pollJob(t, client, srv.URL, j2.ID, JobDone)
	if !done2.CacheHit {
		t.Error("second identical job should be a cache hit")
	}
	var st Stats
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.CacheHits < 1 || st.ValidationRuns != 1 {
		t.Errorf("stats after identical jobs: hits=%d validationRuns=%d, want >=1 and 1",
			st.CacheHits, st.ValidationRuns)
	}

	// Cancel a long-running job.
	var buf bytes.Buffer
	if err := slowDataset(t, 6000, 7).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var slow DatasetInfo
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/datasets?name=slow", &buf, &slow); code != http.StatusCreated {
		t.Fatalf("POST /datasets (slow) status %d: %s", code, raw)
	}
	slowBody := fmt.Sprintf(`{"datasetId": %q, "options": {"threshold": 0.4, "algorithm": "iterative", "includeOFDs": true}}`, slow.ID)
	var j3 JobView
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(slowBody), &j3); code != http.StatusAccepted {
		t.Fatalf("POST /jobs (slow) status %d: %s", code, raw)
	}
	pollJob(t, client, srv.URL, j3.ID, JobRunning)
	var canceled JobView
	if code, raw := doJSON(t, client, http.MethodDelete, srv.URL+"/jobs/"+j3.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s status %d: %s", j3.ID, code, raw)
	}
	got := pollJob(t, client, srv.URL, j3.ID, JobCanceled)
	if got.Report != nil {
		t.Error("canceled job should not carry a report")
	}
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.JobsCanceled != 1 {
		t.Errorf("jobs canceled = %d, want 1", st.JobsCanceled)
	}
	// The worker must be free again.
	var j4 JobView
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(jobBody), &j4); code != http.StatusAccepted {
		t.Fatalf("POST /jobs (4) status %d: %s", code, raw)
	}
	pollJob(t, client, srv.URL, j4.ID, JobDone)

	// Canceling the finished job conflicts.
	if code, _ := doJSON(t, client, http.MethodDelete, srv.URL+"/jobs/"+j4.ID, nil, nil); code != http.StatusConflict {
		t.Errorf("DELETE finished job status %d, want 409", code)
	}

	// Listings.
	var dss []DatasetInfo
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/datasets", nil, &dss); code != http.StatusOK || len(dss) != 2 {
		t.Errorf("GET /datasets: status %d, %d records (want 2)", code, len(dss))
	}
	var jobs []JobView
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/jobs", nil, &jobs); code != http.StatusOK || len(jobs) != 4 {
		t.Errorf("GET /jobs: status %d, %d jobs (want 4)", code, len(jobs))
	}
	for _, j := range jobs {
		if j.Report != nil {
			t.Error("job listings must not attach reports")
		}
	}
}

// TestPostJobRefusesRetiredOptions: the hybrid-sampling options are gone, so
// a job body that still carries sampleStride or sampleSlack is refused with
// 400 by the strict decode instead of running without them.
func TestPostJobRefusesRetiredOptions(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	defer srv.Close()
	client := srv.Client()
	var info DatasetInfo
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/datasets?name=employees",
		strings.NewReader(employeesCSV), &info); code != http.StatusCreated {
		t.Fatalf("POST /datasets status %d: %s", code, raw)
	}
	for _, opts := range []string{`{"threshold":0.1,"sampleStride":8}`, `{"threshold":0.1,"sampleSlack":0.05}`} {
		body := fmt.Sprintf(`{"datasetId":%q,"options":%s}`, info.ID, opts)
		if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
			strings.NewReader(body), nil); code != http.StatusBadRequest {
			t.Errorf("POST /jobs with options %s: status %d (%s), want 400", opts, code, raw)
		}
	}
	body := fmt.Sprintf(`{"datasetId":%q,"options":{"threshold":0.1}}`, info.ID)
	if code, raw := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(body), nil); code != http.StatusAccepted {
		t.Errorf("POST /jobs without them: status %d (%s), want 202", code, raw)
	}
}

// TestServerErrorPaths exercises the API's failure statuses.
func TestServerErrorPaths(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerConfig{MaxUploadBytes: 128}))
	defer srv.Close()
	client := srv.Client()

	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodGet, srv.URL+"/datasets/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown dataset: status %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodDelete, srv.URL+"/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(`{"options": {}}`), nil); code != http.StatusBadRequest {
		t.Errorf("POST /jobs without datasetId: status %d, want 400", code)
	}
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(`{"datasetId": "missing"}`), nil); code != http.StatusNotFound {
		t.Errorf("POST /jobs unknown dataset: status %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/jobs",
		strings.NewReader(`{"datasetId": "x", "options": {"algorithm": "quantum"}}`), nil); code == http.StatusAccepted {
		t.Error("POST /jobs with bogus algorithm should not be accepted")
	}
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/datasets",
		strings.NewReader("not,a\nvalid"), nil); code != http.StatusBadRequest {
		t.Errorf("POST /datasets malformed CSV: status %d, want 400", code)
	}
	big := "a,b\n" + strings.Repeat("1,2\n", 200)
	if code, _ := doJSON(t, client, http.MethodPost, srv.URL+"/datasets",
		strings.NewReader(big), nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /datasets oversized: status %d, want 413", code)
	}
}
