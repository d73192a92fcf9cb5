package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"aod"
	"aod/internal/load"
)

// api is the benchmark's aodserver client: the load harness's client for
// uploads, submissions and scrapes, plus the reads that client does not
// offer — a job's final report and its trace.
type api struct {
	*load.Client
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512, IdleConnTimeout: 90 * time.Second}
	return &api{Client: load.NewClient(base), base: base, hc: &http.Client{Transport: tr}}
}

// await blocks on the job's NDJSON stream until its terminal "done" event
// and returns the final state and report. Per-level events are skipped
// without decoding their partial reports.
func (a *api) await(ctx context.Context, jobID string) (string, *aod.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return "", nil, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return "", nil, fmt.Errorf("streaming %s: %w", jobID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return "", nil, fmt.Errorf("stream of %s returned %d: %s", jobID, resp.StatusCode, msg)
	}
	levelPrefix := []byte(`{"type":"level"`)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // events carry whole reports
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 || bytes.HasPrefix(line, levelPrefix) {
			continue
		}
		var ev struct {
			Type   string      `json:"type"`
			State  string      `json:"state"`
			Report *aod.Report `json:"report"`
			Error  string      `json:"error"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", nil, fmt.Errorf("malformed stream event for %s: %w", jobID, err)
		}
		if ev.Type == "done" {
			if ev.State == "" {
				return "", nil, fmt.Errorf("job %s ended without a state: %s", jobID, ev.Error)
			}
			return ev.State, ev.Report, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("stream of %s: %w", jobID, err)
	}
	return "", nil, fmt.Errorf("stream of %s ended without a done event", jobID)
}

// getJSON decodes the JSON body of GET path into v.
func (a *api) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s returned %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding GET %s: %w", path, err)
	}
	return nil
}
