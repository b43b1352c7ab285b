package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	gort "runtime"
	"strconv"
	"sync"
	"time"

	"naiad/internal/runtime"
)

// Wire error codes. Every rejection is typed: a client (or an operator
// reading logs) can tell a per-tenant quota shed from global overload from
// a ladder-mode shed, and each carries a retry-after hint.
const (
	codeQuota      = "quota_exceeded" // tenant pool exhausted past the delay budget
	codeOverload   = "overloaded"     // global pool exhausted past the delay budget
	codeShed       = "shedding"       // refused by the degradation ladder
	codeSessions   = "session_limit"  // session cap (global or per-tenant)
	codeFlowFailed = "flow_failed"    // the dataflow behind the flow has failed
	codeNotFound   = "not_found"
	codeBadRequest = "bad_request"
	codeTooLarge   = "too_large"
	codeClosing    = "closing" // server shutting down
)

// errorBody is the JSON rejection envelope.
type errorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Mode         string `json:"mode,omitempty"`
}

// sessionResponse answers session creation.
type sessionResponse struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant"`
	Flow    string `json:"flow"`
	// Credits is the tenant's remaining admission allowance, a pacing hint.
	Credits int `json:"credits"`
}

// ingestResponse acks an admitted batch.
type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Epoch    int64  `json:"epoch"` // epoch the records entered at the edge
	Mode     string `json:"mode"`
	Credits  int    `json:"credits"` // tenant credits remaining
}

// frontierResponse is the frontier-stamped state of one flow.
type frontierResponse struct {
	Completed int64  `json:"completed"` // highest epoch complete at the probe
	Open      int64  `json:"open"`      // epoch currently accepting records
	BacklogMS int64  `json:"backlog_ms"`
	Mode      string `json:"mode"`
}

// readResponse is one frontier-stamped key lookup.
type readResponse struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	// Epoch stamps the frontier the value is complete through.
	Epoch int64 `json:"epoch"`
	// Frontier, when the flow's view rides the exactly-once sink
	// (FrontierView), is the sink's guarantee-derived timestamp stamp: no
	// record below it will ever reach the view. Empty otherwise.
	Frontier string `json:"frontier,omitempty"`
}

// advanceResponse acks a forced edge seal.
type advanceResponse struct {
	SealedEpoch int64 `json:"sealed_epoch"`
}

// healthResponse reports the degradation mode.
type healthResponse struct {
	Mode   string `json:"mode"`
	Signal int64  `json:"signal_ms"` // current backlog signal
}

// metricsResponse is the full introspection payload.
type metricsResponse struct {
	Snapshot
	GlobalCreditsFree int    `json:"global_credits_free"`
	HeapAllocBytes    uint64 `json:"heap_alloc_bytes"`
	NumGoroutine      int    `json:"num_goroutine"`
}

// handler builds the HTTP mux. Go 1.22+ method/wildcard patterns keep the
// routing in stdlib.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/records", s.handleIngest)
	mux.HandleFunc("POST /v1/sessions/{id}/advance", s.handleAdvance)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /v1/flows/{flow}/frontier", s.handleFrontier)
	mux.HandleFunc("GET /v1/flows/{flow}/read", s.handleRead)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metricz", s.handleMetricz)
	return mux
}

// reject writes a typed rejection with a retry-after hint.
func (s *Server) reject(w http.ResponseWriter, status int, code, msg string) {
	ra := s.degrade.retryAfter()
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(ra/time.Second)+1))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{
		Error: msg, Code: code, RetryAfterMS: int64(ra / time.Millisecond),
		Mode: s.Mode().String(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleSessionCreate admits a new session: the shed-new-tenants rung
// refuses tenants the server has never seen (established tenants may
// still open sessions), and shed-all refuses everyone.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
		Flow   string `json:"flow"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Tenant == "" || req.Flow == "" {
		s.metrics.BadRequests.Add(1)
		s.reject(w, http.StatusBadRequest, codeBadRequest, "body must be JSON with tenant and flow")
		return
	}
	if s.flow(req.Flow) == nil {
		s.metrics.BadRequests.Add(1)
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown flow "+req.Flow)
		return
	}
	switch s.Mode() {
	case ModeShedAll:
		s.metrics.SessionsShed.Add(1)
		s.reject(w, http.StatusServiceUnavailable, codeShed, "shedding all ingress")
		return
	case ModeShedNew:
		if s.tenant(req.Tenant, false) == nil {
			s.metrics.SessionsShed.Add(1)
			s.metrics.TenantsShed.Add(1)
			s.reject(w, http.StatusServiceUnavailable, codeShed, "shedding new tenants")
			return
		}
	}
	total, forTenant := s.sessions.count(req.Tenant)
	if total >= s.cfg.MaxSessions || forTenant >= s.cfg.MaxSessionsPerTenant {
		s.metrics.SessionsShed.Add(1)
		s.reject(w, http.StatusTooManyRequests, codeSessions, "session limit reached")
		return
	}
	t := s.tenant(req.Tenant, true)
	ss := s.sessions.create(req.Tenant, req.Flow)
	writeJSON(w, http.StatusCreated, sessionResponse{
		Session: ss.id, Tenant: ss.tenant, Flow: ss.flow, Credits: t.pool.available(),
	})
}

// handleIngest is the admission path: decode, charge credits (waiting up
// to the accept-and-delay budget), hand to the edge batcher, ack with the
// epoch. A request is all-or-nothing — a mid-body disconnect feeds no
// records.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ss := s.sessions.get(r.PathValue("id"))
	if ss == nil || !ss.touch(start) {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown session")
		return
	}
	fs := s.flow(ss.flow)
	if fs == nil {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown flow")
		return
	}
	if err := fs.err(); err != nil {
		s.reject(w, http.StatusServiceUnavailable, codeFlowFailed, "dataflow failed: "+err.Error())
		return
	}
	if s.Mode() == ModeShedAll {
		s.shedRecords(w, 0, codeShed, "shedding all ingress")
		return
	}
	msgs, n, errCode, errMsg := s.decodeBody(w, r, fs)
	if errCode != "" {
		s.metrics.BadRequests.Add(1)
		status := http.StatusBadRequest
		if errCode == codeTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		s.reject(w, status, errCode, errMsg)
		return
	}
	if n == 0 {
		writeJSON(w, http.StatusOK, ingestResponse{Accepted: 0, Epoch: fs.f.Input.Epoch(), Mode: s.Mode().String()})
		return
	}
	t := s.tenant(ss.tenant, true)
	code, waited := s.admit(t, n, start.Add(s.cfg.AdmitWait))
	s.metrics.RecordAdmitWait(int64(waited))
	if code != "" {
		s.shedRecords(w, n, code, "admission timed out: "+code)
		return
	}
	epoch := fs.push(ingestBatch{tenant: ss.tenant, msgs: msgs, n: n})
	if epoch < 0 {
		s.refund(t, n)
		s.shedRecords(w, n, codeClosing, "server shutting down")
		return
	}
	ss.mu.Lock()
	ss.records += int64(n)
	ss.mu.Unlock()
	s.metrics.RecordsAccepted.Add(int64(n))
	s.metrics.RecordIngest(int64(time.Since(start)))
	writeJSON(w, http.StatusOK, ingestResponse{
		Accepted: n, Epoch: epoch, Mode: s.Mode().String(), Credits: t.pool.available(),
	})
}

// shedRecords accounts one shed ingest request and writes its rejection.
func (s *Server) shedRecords(w http.ResponseWriter, n int, code, msg string) {
	s.metrics.RecordsShed.Add(int64(n))
	status := http.StatusServiceUnavailable
	switch code {
	case codeQuota:
		s.metrics.ShedQuota.Add(1)
		status = http.StatusTooManyRequests
	case codeOverload:
		s.metrics.ShedOverload.Add(1)
	default:
		s.metrics.ShedMode.Add(1)
	}
	s.reject(w, status, code, msg)
}

// scanBufs recycles decodeBody's 64 KB line buffers. For a longer line the
// scanner grows a private copy that is never pooled: nothing huge is pinned.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// decodeBody reads the NDJSON body (one record per line) through the
// flow's decoder. Returns a non-empty code on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, fs *flowState) (msgs []runtime.Message, n int, code, msg string) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(body)
	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf)
	sc.Buffer(*buf, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(msgs) >= s.cfg.MaxBatchRecords {
			return nil, 0, codeTooLarge, fmt.Sprintf("batch exceeds %d records", s.cfg.MaxBatchRecords)
		}
		var m runtime.Message
		var err error
		if fs.f.Decode != nil {
			m, err = fs.f.Decode(line)
		} else {
			m = string(line)
		}
		if err != nil {
			return nil, 0, codeBadRequest, "record decode: " + err.Error()
		}
		msgs = append(msgs, m)
	}
	if err := sc.Err(); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, 0, codeTooLarge, "body exceeds limit"
		}
		// Mid-body disconnect or read error: all-or-nothing, feed nothing.
		return nil, 0, codeBadRequest, "body read: " + err.Error()
	}
	return msgs, len(msgs), "", ""
}

// handleAdvance force-seals the flow's open edge epoch: a tenant's
// bounded-latency knob. The sealed epoch is shared — edge batching
// multiplexes all tenants onto one epoch stream.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	ss := s.sessions.get(r.PathValue("id"))
	if ss == nil || !ss.touch(time.Now()) {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown session")
		return
	}
	fs := s.flow(ss.flow)
	if fs == nil {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown flow")
		return
	}
	epoch := fs.push(ingestBatch{seal: true})
	if epoch < 0 {
		s.reject(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
		return
	}
	writeJSON(w, http.StatusOK, advanceResponse{SealedEpoch: epoch})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFrontier serves the flow's progress state: what is complete, what
// is open, and how far the dataflow trails the edge.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	fs := s.flow(r.PathValue("flow"))
	if fs == nil {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown flow")
		return
	}
	writeJSON(w, http.StatusOK, frontierResponse{
		Completed: fs.completed(),
		Open:      fs.f.Input.Epoch(),
		BacklogMS: int64(fs.backlogAge() / time.Millisecond),
		Mode:      s.Mode().String(),
	})
}

// handleRead is a frontier-stamped key lookup. min_epoch waits (bounded
// by timeout_ms, capped at the server's request timeout) until the probe
// completes that epoch, so a client can read its own writes: ingest acks
// epoch E, read with min_epoch=E sees state complete through E.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	fs := s.flow(r.PathValue("flow"))
	if fs == nil {
		s.reject(w, http.StatusNotFound, codeNotFound, "unknown flow")
		return
	}
	if fs.f.View == nil {
		s.reject(w, http.StatusNotFound, codeNotFound, "flow has no view")
		return
	}
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		s.metrics.BadRequests.Add(1)
		s.reject(w, http.StatusBadRequest, codeBadRequest, "key required")
		return
	}
	if minStr := q.Get("min_epoch"); minStr != "" {
		minEpoch, err := strconv.ParseInt(minStr, 10, 64)
		if err != nil {
			s.metrics.BadRequests.Add(1)
			s.reject(w, http.StatusBadRequest, codeBadRequest, "min_epoch must be an integer")
			return
		}
		timeout := s.cfg.RequestTimeout
		if tStr := q.Get("timeout_ms"); tStr != "" {
			if ms, err := strconv.ParseInt(tStr, 10, 64); err == nil && ms > 0 && time.Duration(ms)*time.Millisecond < timeout {
				timeout = time.Duration(ms) * time.Millisecond
			}
		}
		switch fs.waitCompleted(minEpoch, timeout) {
		case codeClosing:
			s.reject(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
			return
		case codeOverload:
			s.metrics.ReadTimeouts.Add(1)
			s.reject(w, http.StatusGatewayTimeout, codeOverload,
				fmt.Sprintf("epoch %d not complete within timeout (completed=%d)", minEpoch, fs.completed()))
			return
		}
	}
	val, epoch, ok := fs.f.View.Lookup(key)
	w.Header().Set("X-Naiad-Frontier", fmt.Sprintf("%d", fs.completed()))
	// A view maintained through the exactly-once sink carries a durable
	// frontier stamp of its own. The probe wait above already covers it:
	// the sink's held capability keeps the probe from completing an epoch
	// until the view's commit is acknowledged, so by the time waitCompleted
	// returns the view is at least as fresh as the probe frontier.
	var stamp string
	if fv, isFV := fs.f.View.(FrontierView); isFV {
		stamp = fv.Frontier().String()
		w.Header().Set("X-Naiad-View-Frontier", stamp)
	}
	if !ok {
		s.reject(w, http.StatusNotFound, codeNotFound, "no value for key "+key)
		return
	}
	s.metrics.ReadsServed.Add(1)
	writeJSON(w, http.StatusOK, readResponse{Key: key, Value: string(val), Epoch: epoch, Frontier: stamp})
}

// waitCompleted parks the read until the probe passes epoch and returns "":
// the releaser broadcasts every completion, so nothing polls. It returns
// codeOverload when the flow fails or the timeout expires first, and
// codeClosing on shutdown. A parked read counts toward sealOnDemand.
func (fs *flowState) waitCompleted(epoch int64, timeout time.Duration) string {
	if fs.completed() >= epoch {
		return ""
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.parked++
	defer func() { fs.parked-- }()
	fs.nudge()
	code := codeOverload // a failed flow answers like a timeout
	for parked := true; parked && fs.completed() < epoch && fs.failed == nil; {
		wake := fs.wake
		fs.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			parked = false
		case <-fs.s.done:
			code, parked = codeClosing, false
		}
		fs.mu.Lock()
	}
	if fs.completed() >= epoch {
		return ""
	}
	return code
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	mode := s.Mode()
	status := http.StatusOK
	if mode == ModeShedAll {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, healthResponse{
		Mode:   mode.String(),
		Signal: int64(s.degrade.signal() / time.Millisecond),
	})
}

// handleMetricz serves the full metrics snapshot plus process heap
// figures — what the load harness polls to assert the memory bound.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, metricsResponse{
		Snapshot:          s.metrics.Snapshot(),
		GlobalCreditsFree: s.global.available(),
		HeapAllocBytes:    ms.HeapAlloc,
		NumGoroutine:      gort.NumGoroutine(),
	})
}
