// Package server exposes CerFix over HTTP/JSON — the stand-in for the
// demo's Web interface (data explorer). It covers the three
// demonstration facilities of the paper:
//
//   - editing-rule management (Fig. 2): list/add/delete rules and run
//     the consistency check;
//   - data monitoring (Fig. 3): open sessions, receive suggestions,
//     validate attributes, watch CerFix expand the validated set;
//   - data auditing (Fig. 4): per-tuple history, per-cell provenance
//     and per-attribute user%/auto% statistics.
//
// All handlers are JSON over stdlib net/http; see routes in Handler.
package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"cerfix"
	"cerfix/internal/admission"
	"cerfix/internal/counter"
	"cerfix/internal/faultfs"
	"cerfix/internal/guard"
	"cerfix/internal/jobs"
	"cerfix/internal/master"
	"cerfix/internal/monitor"
	"cerfix/internal/schema"
)

// Server wraps a cerfix.System with HTTP session state and the
// admission front door (see routes.go and middleware.go).
type Server struct {
	mu       sync.Mutex
	sys      *cerfix.System
	sessions map[int64]*monitor.Session
	// jobs is the async batch-repair queue; nil until AttachJobs.
	jobs *jobs.Manager
	// persistHealth, when set (SetPersistenceHealth), is surfaced on
	// /api/v1/status and sizes Retry-After on persistence_degraded
	// sheds.
	persistHealth *faultfs.Health
	// memMon, when set (SetMemMonitor), is polled at each job submit
	// (shedding it under heap pressure) and each /api/v1/status read
	// (guardrails.memory).
	memMon *guard.MemMonitor

	// Admission state (SetLimits): per-key limiter, sync-fix gate and
	// the moving average of sync batch service time behind computed
	// Retry-After values.
	limits  Limits
	limiter *admission.Limiter
	fixGate *admission.Gate
	fixTime admission.EWMA
	// sheds counts refusals per shed code (every key of shedStatus),
	// bumped only by shed and surfaced as admission.shed on
	// /api/v1/status; counter.Monotonic marshals as a bare number.
	sheds map[string]*counter.Monotonic

	// Request-ID assignment: per-process random prefix + counter.
	idPrefix string
	reqSeq   atomic.Int64

	accessLog *log.Logger
	errorLog  *log.Logger

	// syncFixHook, when set by tests, runs inside the sync-fix gate —
	// the deterministic way to hold slots occupied or inject faults.
	syncFixHook func()
}

// New builds a server for a configured system.
func New(sys *cerfix.System) *Server {
	s := &Server{
		sys:      sys,
		sessions: make(map[int64]*monitor.Session),
		sheds:    make(map[string]*counter.Monotonic, len(shedStatus)),
		idPrefix: newIDPrefix(),
	}
	for code := range shedStatus {
		s.sheds[code] = new(counter.Monotonic)
	}
	return s
}

// SetPersistenceHealth wires the persistence health tracker in: its
// state shows up under /api/v1/status persistence.health, and degraded
// sheds answer with its Retry-After estimate. Call before Handler.
func (s *Server) SetPersistenceHealth(h *faultfs.Health) { s.persistHealth = h }

// SetMemMonitor wires the heap-watermark monitor in: each job submit
// polls it, shedding past the soft watermark with 429 memory_pressure
// and past the hard watermark with 503 memory_degraded, and each
// /api/v1/status read polls it for guardrails.memory. Call before
// Handler.
func (s *Server) SetMemMonitor(m *guard.MemMonitor) { s.memMon = m }

// --- helpers -----------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// listPage is the uniform list envelope: items plus the pagination
// window that produced them. Every collection endpoint answers this
// shape — never a bare array.
type listPage struct {
	Items  any `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// defaultPageLimit is the page size when a list request names none.
const defaultPageLimit = 100

// pageParams reads limit/offset (default limit defLimit, offset 0),
// rejecting malformed or negative values.
func pageParams(r *http.Request, defLimit int) (limit, offset int, err error) {
	limit = defLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, perr := strconv.Atoi(q)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", q)
		}
		limit = n
	}
	if q := r.URL.Query().Get("offset"); q != "" {
		n, perr := strconv.Atoi(q)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", q)
		}
		offset = n
	}
	return limit, offset, nil
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- status ------------------------------------------------------------

// admissionStatus reports the front-door configuration and live
// occupancy.
type admissionStatus struct {
	// RatePerKey and Burst echo -rate/-burst (0 = rate limiting off).
	RatePerKey float64 `json:"rate_per_key"`
	Burst      int     `json:"burst"`
	// MaxSyncFix echoes -max-sync-fix (0 = unlimited); SyncInFlight
	// is the current gate occupancy.
	MaxSyncFix   int `json:"max_sync_fix"`
	SyncInFlight int `json:"sync_fix_in_flight"`
	// AvgFixMS is the moving average of synchronous batch service
	// time in milliseconds (feeds Retry-After on overload sheds).
	AvgFixMS float64 `json:"avg_fix_ms"`
	// Shed counts refusals since start per shed code.
	Shed map[string]*counter.Monotonic `json:"shed"`
}

type statusResponse struct {
	InputSchema  string          `json:"input_schema"`
	MasterSchema string          `json:"master_schema"`
	MasterTuples int             `json:"master_tuples"`
	Rules        int             `json:"rules"`
	AuditRecords int             `json:"audit_records"`
	OpenSessions int             `json:"open_sessions"`
	Admission    admissionStatus `json:"admission"`
	// Guardrails reports the runtime-guardrail configuration and the
	// live memory-pressure state (memory absent without -mem-soft/
	// -mem-hard).
	Guardrails guardrailStatus `json:"guardrails"`
	// Jobs reports the async queue (absent when the daemon runs
	// without -jobs-dir).
	Jobs *jobs.QueueStats `json:"jobs,omitempty"`
	// Memory is the master data manager's byte accounting: rows and
	// rule indexes.
	Memory *master.MemStats `json:"memory,omitempty"`
	// Persistence reports where the instance was loaded from and the
	// live durability health (absent for in-memory systems with no
	// health tracking).
	Persistence *persistenceStatus `json:"persistence,omitempty"`
}

// guardrailStatus echoes the runtime-guardrail flags and, when the
// daemon runs a memory monitor, its live pressure state.
type guardrailStatus struct {
	RequestTimeoutMS int64            `json:"request_timeout_ms"`
	MaxBodyBytes     int64            `json:"max_body_bytes"`
	Memory           *guard.MemStatus `json:"memory,omitempty"`
}

// persistenceStatus merges load provenance (directory, backup
// fallback, WAL replay — absent for in-memory systems) with the live
// persistence health (absent when the daemon tracks none). A nil
// LoadInfo simply omits its fields.
type persistenceStatus struct {
	*cerfix.LoadInfo
	Health *faultfs.HealthStatus `json:"health,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	adm := admissionStatus{
		RatePerKey: s.limits.Rate,
		Burst:      s.limits.Burst,
		MaxSyncFix: s.limits.MaxSyncFix,
		AvgFixMS:   float64(s.fixTime.Value().Microseconds()) / 1000,
		Shed:       s.sheds,
	}
	if s.fixGate != nil {
		adm.SyncInFlight = s.fixGate.InFlight()
	}
	gs := guardrailStatus{
		RequestTimeoutMS: s.limits.RequestTimeout.Milliseconds(),
		MaxBodyBytes:     s.limits.MaxBody,
	}
	if s.memMon != nil {
		s.memMon.Poll()
		ms := s.memMon.Status()
		gs.Memory = &ms
	}
	var qs *jobs.QueueStats
	if s.jobs != nil {
		st := s.jobs.Stats()
		qs = &st
	}
	var ps *persistenceStatus
	if li := s.sys.LoadInfo(); li != nil || s.persistHealth != nil {
		ps = &persistenceStatus{LoadInfo: li}
		if s.persistHealth != nil {
			hs := s.persistHealth.Status()
			ps.Health = &hs
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mem := s.sys.MemStats()
	writeJSON(w, http.StatusOK, statusResponse{
		InputSchema:  s.sys.InputSchema().String(),
		MasterSchema: s.sys.MasterSchema().String(),
		MasterTuples: s.sys.Master().Len(),
		Rules:        s.sys.RuleSet().Len(),
		AuditRecords: s.sys.Audit().Len(),
		OpenSessions: len(s.sessions),
		Admission:    adm,
		Guardrails:   gs,
		Jobs:         qs,
		Memory:       &mem,
		Persistence:  ps,
	})
}

// --- rules (Fig. 2) -----------------------------------------------------

type ruleJSON struct {
	ID      string `json:"id"`
	DSL     string `json:"dsl"`
	Comment string `json:"comment,omitempty"`
}

func (s *Server) handleRulesList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rules := s.sys.RuleSet().Rules()
	out := make([]ruleJSON, len(rules))
	for i, ru := range rules {
		out[i] = ruleJSON{ID: ru.ID, DSL: ru.String(), Comment: ru.Comment}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRulesAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		DSL string `json:"dsl"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeDecodeErr(w, r, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sys.AddRule(req.DSL); err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"rules": s.sys.RuleSet().Len()})
}

func (s *Server) handleRulesDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sys.RemoveRule(id) {
		writeErr(w, r, http.StatusNotFound, codeNotFound, fmt.Errorf("rule %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"rules": s.sys.RuleSet().Len()})
}

type issueJSON struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	RuleA    string `json:"rule_a"`
	RuleB    string `json:"rule_b,omitempty"`
	Attr     string `json:"attr,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// handleRulesCheck runs the check on a snapshot after unlocking, like /fix.
func (s *Server) handleRulesCheck(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	eng := s.sys.SnapshotEngine()
	s.mu.Unlock()
	rep := eng.CheckConsistency()
	issues := make([]issueJSON, len(rep.Issues))
	for i, is := range rep.Issues {
		issues[i] = issueJSON{
			Kind:     is.Kind.String(),
			Severity: is.Severity.String(),
			RuleA:    is.RuleA,
			RuleB:    is.RuleB,
			Attr:     is.Attr,
			Detail:   is.Detail,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"consistent": rep.Consistent(),
		"issues":     issues,
		"probes_run": rep.ProbesRun,
	})
}

// --- regions ------------------------------------------------------------

type regionJSON struct {
	Attrs []string `json:"attrs"`
	Size  int      `json:"size"`
	Rows  int      `json:"tableau_rows"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	k := 0
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, fmt.Errorf("bad k %q", q))
			return
		}
		k = n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	regions := s.sys.Regions(k)
	out := make([]regionJSON, len(regions))
	for i, reg := range regions {
		out[i] = regionJSON{Attrs: reg.AttrNames(), Size: reg.Size(), Rows: len(reg.Tableau.Rows)}
	}
	writeJSON(w, http.StatusOK, out)
}

// --- master data ---------------------------------------------------------

func (s *Server) handleMasterList(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, defaultPageLimit)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Always an array in JSON, never null — an empty store, a high
	// offset or limit=0 must not change the response shape. The scan
	// starts at row offset+1 by position, reads the stored rows
	// without copying them and stops after limit, so a page costs what
	// it holds.
	rows := []map[string]string{}
	if limit > 0 {
		s.sys.Master().Table().ScanSharedTail(offset, func(tu *schema.Tuple) bool {
			m := tu.Map()
			m["_id"] = strconv.FormatInt(tu.ID, 10)
			rows = append(rows, m)
			return len(rows) < limit
		})
	}
	writeJSON(w, http.StatusOK, listPage{
		Items:  rows,
		Total:  s.sys.Master().Len(),
		Limit:  limit,
		Offset: offset,
	})
}

func (s *Server) handleMasterAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Values map[string]string `json:"values"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeDecodeErr(w, r, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sch := s.sys.MasterSchema()
	vals := make([]string, sch.Len())
	for k, v := range req.Values {
		i, ok := sch.Index(k)
		if !ok {
			writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("unknown attribute %q", k))
			return
		}
		vals[i] = v
	}
	if err := s.sys.AddMasterRow(vals...); err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"master_tuples": s.sys.Master().Len()})
}

// --- sessions (Fig. 3) ----------------------------------------------------

type sessionJSON struct {
	ID         int64             `json:"id"`
	Tuple      map[string]string `json:"tuple"`
	Validated  []string          `json:"validated"`
	Remaining  []string          `json:"remaining"`
	Suggestion []string          `json:"suggestion"`
	Rounds     int               `json:"rounds"`
	Done       bool              `json:"done"`
	Certain    bool              `json:"certain"`
	Conflicts  []string          `json:"conflicts,omitempty"`
}

func (s *Server) sessionJSONLocked(sess *monitor.Session) sessionJSON {
	out := sessionJSON{
		ID:    sess.ID,
		Tuple: sess.Tuple.Map(),
		// Schema order, matching the batch and jobs endpoints (the
		// session endpoint used to re-sort lexicographically, so the
		// two APIs disagreed on the same validated set).
		Validated:  sess.Validated.Names(sess.Tuple.Schema),
		Remaining:  sess.Remaining(),
		Suggestion: sess.Suggestion(),
		Rounds:     sess.Rounds,
		Done:       sess.Done(),
		Certain:    sess.Certain(),
	}
	for _, c := range sess.Conflicts {
		out.Conflicts = append(out.Conflicts, c.Error())
	}
	return out
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tuple map[string]string `json:"tuple"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeDecodeErr(w, r, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, err := s.sys.NewSession(req.Tuple)
	if err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
		return
	}
	s.sessions[sess.ID] = sess
	writeJSON(w, http.StatusCreated, s.sessionJSONLocked(sess))
}

// lookupSession resolves {id}, writing the envelope itself on failure
// — a malformed id is the caller's argument (400), an unknown one is
// absent state (404).
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*monitor.Session, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument,
			fmt.Errorf("bad session id %q", r.PathValue("id")))
		return nil, false
	}
	sess, ok := s.sessions[id]
	if !ok {
		writeErr(w, r, http.StatusNotFound, codeNotFound, fmt.Errorf("session %d not found", id))
		return nil, false
	}
	return sess, true
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sessionJSONLocked(sess))
}

// changeJSON is the wire shape of one cell change — shared with the
// jobs results artifact so sync and async outputs encode identically.
type changeJSON = jobs.Change

func (s *Server) handleSessionValidate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Assertions map[string]string `json:"assertions"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeDecodeErr(w, r, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	res, err := sess.Validate(req.Assertions)
	if err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
		return
	}
	changes := make([]changeJSON, len(res.Changes))
	for i, c := range res.Changes {
		changes[i] = changeJSON{
			Attr: c.Attr, Old: string(c.Old), New: string(c.New),
			Source: c.Source.String(), RuleID: c.RuleID, MasterID: c.MasterID,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session": s.sessionJSONLocked(sess),
		"changes": changes,
	})
}

// handleSessionExplain returns the derivation plan behind the current
// suggestion ("why is validating these attributes enough?").
func (s *Server) handleSessionExplain(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"suggestion":  sess.Suggestion(),
		"explanation": sess.ExplainSuggestion(),
	})
}

// --- auditing (Fig. 4) ------------------------------------------------------

type attrStatsJSON struct {
	Attr          string  `json:"attr"`
	UserValidated int     `json:"user_validated"`
	AutoFixed     int     `json:"auto_fixed"`
	AutoConfirmed int     `json:"auto_confirmed"`
	UserPct       float64 `json:"user_pct"`
	AutoPct       float64 `json:"auto_pct"`
}

func statsJSON(st cerfix.AttrStats) attrStatsJSON {
	return attrStatsJSON{
		Attr:          st.Attr,
		UserValidated: st.UserValidated,
		AutoFixed:     st.AutoFixed,
		AutoConfirmed: st.AutoConfirmed,
		UserPct:       st.UserPct(),
		AutoPct:       st.AutoPct(),
	}
}

func (s *Server) handleAuditStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := s.sys.Audit().StatsPerAttr()
	out := make([]attrStatsJSON, len(per))
	for i, st := range per {
		out[i] = statsJSON(st)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"per_attr": out,
		"overall":  statsJSON(s.sys.Audit().Overall()),
	})
}

type auditRecordJSON struct {
	Seq      int    `json:"seq"`
	TupleID  int64  `json:"tuple_id"`
	Attr     string `json:"attr"`
	Old      string `json:"old"`
	New      string `json:"new"`
	Source   string `json:"source"`
	RuleID   string `json:"rule_id,omitempty"`
	MasterID int64  `json:"master_id,omitempty"`
}

func recordJSON(rec cerfix.AuditRecord) auditRecordJSON {
	return auditRecordJSON{
		Seq: rec.Seq, TupleID: rec.TupleID, Attr: rec.Attr,
		Old: string(rec.Old), New: string(rec.New),
		Source: rec.Source.String(), RuleID: rec.RuleID, MasterID: rec.MasterID,
	}
}

func (s *Server) handleAuditTuple(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, fmt.Errorf("bad tuple id"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hist := s.sys.Audit().TupleHistory(id)
	out := make([]auditRecordJSON, len(hist))
	for i, rec := range hist {
		out[i] = recordJSON(rec)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAuditCell is the Fig. 4 click-through: latest provenance for
// one cell (?tuple=ID&attr=FN).
func (s *Server) handleAuditCell(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("tuple"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, fmt.Errorf("bad tuple id"))
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, fmt.Errorf("missing attr"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.sys.Audit().CellProvenance(id, attr)
	if !ok {
		writeErr(w, r, http.StatusNotFound, codeNotFound, fmt.Errorf("no audit record for tuple %d attr %s", id, attr))
		return
	}
	writeJSON(w, http.StatusOK, recordJSON(rec))
}
