package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"aod"
)

// DefaultMaxUploadBytes bounds POST /datasets bodies unless overridden.
const DefaultMaxUploadBytes = 256 << 20 // 256 MiB

// HandlerConfig tunes the HTTP layer.
type HandlerConfig struct {
	// MaxUploadBytes bounds CSV upload bodies (default DefaultMaxUploadBytes).
	MaxUploadBytes int64
}

// NewHandler exposes the service as an HTTP JSON API:
//
//	POST   /datasets        CSV body (text/csv) → dataset record; ?name= labels it
//	GET    /datasets        list dataset records
//	GET    /datasets/{id}   one dataset record
//	POST   /jobs            {"datasetId": ..., "options": {...}} → job (202)
//	GET    /jobs            list jobs (without reports)
//	GET    /jobs/{id}       job status; partial report while running, report once done
//	GET    /jobs/{id}/stream NDJSON stream of per-level progress events
//	DELETE /jobs/{id}       cancel the job
//	GET    /healthz         readiness probe (503 while draining; carries queue age)
//	GET    /peer/report     replica-internal: cached report for ?key= (404 on miss)
//	GET    /stats           service counters
func NewHandler(s *Service, cfg HandlerConfig) http.Handler {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	h := &handler{svc: s, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets", h.postDataset)
	mux.HandleFunc("GET /datasets", h.listDatasets)
	mux.HandleFunc("GET /datasets/{id}", h.getDataset)
	mux.HandleFunc("POST /jobs", h.postJob)
	mux.HandleFunc("GET /jobs", h.listJobs)
	mux.HandleFunc("GET /jobs/{id}", h.getJob)
	mux.HandleFunc("GET /jobs/{id}/stream", h.streamJob)
	mux.HandleFunc("GET /jobs/{id}/trace", h.traceJob)
	mux.HandleFunc("DELETE /jobs/{id}", h.deleteJob)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /peer/report", h.peerReport)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

type handler struct {
	svc *Service
	cfg HandlerConfig
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (h *handler) postDataset(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxUploadBytes)
	ds, err := aod.ReadCSV(body, aod.CSVOptions{})
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing CSV: %w", err))
		return
	}
	info, created, err := h.svc.Registry().Add(r.URL.Query().Get("name"), ds)
	switch {
	case errors.Is(err, ErrRegistryFull):
		writeErr(w, http.StatusInsufficientStorage, err)
		return
	case err != nil: // e.g. the fingerprint-prefix collision refusal
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusCreated
	if !created {
		status = http.StatusOK // deduplicated re-upload
	}
	writeJSON(w, status, info)
}

func (h *handler) listDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Registry().List())
}

func (h *handler) getDataset(w http.ResponseWriter, r *http.Request) {
	// Info, not Get: a metadata read must not page a disk-evicted payload
	// back into memory.
	info, err := h.svc.Registry().Info(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// jobRequest is the POST /jobs body.
type jobRequest struct {
	DatasetID string      `json:"datasetId"`
	Options   aod.Options `json:"options"`
}

func (h *handler) postJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job request exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing job request: %w", err))
		return
	}
	if req.DatasetID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("datasetId is required"))
		return
	}
	view, err := h.svc.Submit(req.DatasetID, req.Options)
	switch {
	case errors.Is(err, ErrNoDataset):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrInvalidOptions):
		writeErr(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		// An honest backoff hint derived from the oldest queued job's age —
		// not a constant — so clients and routers pace their retries to how
		// congested this replica actually is.
		w.Header().Set("Retry-After", strconv.Itoa(h.svc.retryAfterSeconds()))
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Location", "/jobs/"+view.ID)
		writeJSON(w, http.StatusAccepted, view)
	}
}

func (h *handler) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Jobs())
}

func (h *handler) getJob(w http.ResponseWriter, r *http.Request) {
	view, err := h.svc.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// streamJob serves GET /jobs/{id}/stream: an NDJSON stream (one JSON object
// per line, application/x-ndjson) of "level" events — each carrying the
// cumulative partial report of the levels completed so far — terminated by a
// single "done" event with the job's final state. The stream ends cleanly on
// job completion, job cancellation (state "canceled"), and client disconnect
// (the subscription is dropped; the job itself keeps running). Terminal jobs
// yield just the "done" event, so the endpoint doubles as a blocking "wait
// for this job" primitive.
func (h *handler) streamJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, cancel, err := h.svc.Stream(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // no indent: one event per line
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// Terminal: emit the authoritative final state. The job can
				// only have been pruned from history mid-stream in a pathological
				// config; surface that as an error event rather than silence.
				final := StreamEvent{Type: "done", JobID: id}
				if view, err := h.svc.Job(id); err == nil {
					final.State = view.State
					final.Report = view.Report
					final.Error = view.Error
				} else {
					final.Error = err.Error()
				}
				_ = enc.Encode(final)
				return
			}
			if err := enc.Encode(ev); err != nil {
				return // client gone; cancel() drops the subscription
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return // client disconnected mid-stream
		}
	}
}

// traceJob serves GET /jobs/{id}/trace: the job's span tree as JSON —
// queue wait, cache lookup, dataset load, partition build, per-level
// validation, and (under a shard pool) per-slice RPCs with the workers' own
// spans stitched beneath them.
func (h *handler) traceJob(w http.ResponseWriter, r *http.Request) {
	tree, err := h.svc.JobTrace(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

// metrics serves GET /metrics in the Prometheus text exposition format.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.svc.Metrics().WritePrometheus(w)
}

func (h *handler) deleteJob(w http.ResponseWriter, r *http.Request) {
	view, err := h.svc.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNoJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrJobFinished):
		writeJSON(w, http.StatusConflict, view)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

// HealthView is the GET /healthz body: a readiness signal plus the queue
// observations a router's probe folds into its shedding decisions. Status is
// "ok" (200) or "draining" (503) — an unready replica keeps serving reads
// and finishing admitted jobs, it just refuses new ones.
type HealthView struct {
	Status           string `json:"status"`
	QueuedJobs       int    `json:"queuedJobs"`
	JobsInFlight     int64  `json:"jobsInFlight"`
	OldestQueueAgeNs int64  `json:"oldestQueueAgeNs"`
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	s := h.svc
	s.mu.Lock()
	queued := s.pending.Len()
	s.mu.Unlock()
	view := HealthView{
		Status:           "ok",
		QueuedJobs:       queued,
		JobsInFlight:     s.met.inFlight.Value(),
		OldestQueueAgeNs: int64(s.QueueAge()),
	}
	if s.Draining() {
		view.Status = "draining"
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, view)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// peerReport serves GET /peer/report?key=...: the raw cached report for a
// result-cache key, for replica peering (see Config.Peers). 404 on a miss —
// the asking replica then validates locally.
func (h *handler) peerReport(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, errors.New("service: peer report needs ?key="))
		return
	}
	rep, ok := h.svc.PeerReport(key)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("service: no cached report for key"))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Stats())
}
