// Package jobs is the persistent async batch-repair subsystem: long
// batch repairs run off the interactive request path entirely —
// submitted, tracked, and durable across daemon restarts. It layers a
// job queue on internal/pipeline the way the paper positions the data
// monitor as an integration point for "other database applications"
// (§3): a caller hands over a validated-attribute list plus an input
// source, and polls for the outcome instead of holding a connection
// open for the duration of the repair. A configurable pool of
// concurrent runners (Config.Workers) executes queued jobs with fair
// FIFO admission, each run against its own O(1) copy-on-write engine
// snapshot (core.Engine.Snapshot), so overlapping jobs neither block
// each other nor pay a per-run deep copy of master data.
//
// # Lifecycle
//
// A job moves through the states
//
//	queued → running → done
//	                 ↘ failed     (source/sink error)
//	                 ↘ cancelled  (user cancel)
//
// with one extra edge: a running job interrupted by daemon shutdown
// is re-marked queued, so the next start re-runs it from scratch.
// Cancellation aborts the pipeline through its context hook and is
// observed within one backpressure window. Terminal jobs — journal,
// input and results artifacts — are retained until explicitly purged
// (Manager.Remove; DELETE /api/v1/jobs/{id} on a finished job); there is
// no automatic retention window.
//
// # Directory layout
//
// Each job owns one subdirectory of the manager's jobs directory:
//
//	<jobs-dir>/<job-id>/
//	    job.json       — the journal record: spec, state, timestamps,
//	                     final stats; rewritten atomically (temp file
//	                     + rename) on every transition
//	    input.jsonl    — inline tuples, one canonical JSONL line each,
//	                     written as the submission streams in (absent
//	                     for server-side file inputs)
//	    results.jsonl  — the results artifact, one TupleResult object
//	                     per input tuple in input order
//
// job.json is the source of truth at recovery: on Open, every job
// found queued or running is re-queued (its partial results artifact
// is discarded), and terminal jobs are retained for listing. A
// directory named as a job ID with no job.json is a torn submit, never
// acknowledged, and is removed; no other entry of Config.Dir is, so
// the directory need not be dedicated to jobs.
//
// The results artifact uses the same per-tuple JSON shape as the
// synchronous POST /api/v1/fix results array, so an async job's output
// is byte-identical, line for line, to the sync path for the same
// input.
//
// # Inline submission
//
// Inline tuples are streamed, not materialized after the fact:
// BeginInline reserves a backlog slot and opens input.jsonl, Add
// appends each tuple as it is decoded, and Commit fsyncs the file and
// journals the job queued (Abort removes it all). The HTTP handler
// feeds it straight from the request body, so no decoded copy of the
// submission ever exists; SubmitInline wraps the same calls for
// callers that already hold the tuples. Admit is the cheap check a
// submitter makes before reading any input.
package jobs

import (
	"time"

	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// State is a job's lifecycle position.
type State string

// The job states. Queued and Running are live (recovered after a
// restart); Done, Failed and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Format names an input encoding for server-side job inputs.
const (
	FormatCSV   = "csv"
	FormatJSONL = "jsonl"
)

// Job is the journal record persisted as job.json — the durable
// description of one batch repair. Copies returned by the Manager are
// snapshots; mutate nothing.
type Job struct {
	// ID names the job and its subdirectory.
	ID string `json:"id"`
	// State is the current lifecycle position.
	State State `json:"state"`
	// Validated lists the attributes asserted correct on every tuple.
	Validated []string `json:"validated"`
	// Input is the tuple source: a path relative to the job directory
	// for materialized inline submissions, absolute for server-side
	// files.
	Input string `json:"input"`
	// Format is the input encoding (FormatCSV or FormatJSONL).
	Format string `json:"format"`
	// Submitted, Started and Finished stamp the transitions (zero
	// until reached).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Attempts counts runs, >1 after restart recovery.
	Attempts int `json:"attempts"`
	// Processed is the live progress counter: results written so far.
	Processed int `json:"processed"`
	// Error holds the failure cause for StateFailed.
	Error string `json:"error,omitempty"`
	// PanicStack is the goroutine stack of a recovered runner panic —
	// journaled with the failure so a poisoned tuple or rule can be
	// diagnosed from the job record alone.
	PanicStack string `json:"panic_stack,omitempty"`
	// Stats is the pipeline aggregate, set when the job completes.
	Stats *pipeline.Stats `json:"stats,omitempty"`
}

// Change is one cell rewrite or confirmation in a job's results
// artifact — the wire twin of the HTTP API's change object.
type Change struct {
	Attr     string `json:"attr"`
	Old      string `json:"old"`
	New      string `json:"new"`
	Source   string `json:"source"`
	RuleID   string `json:"rule_id,omitempty"`
	MasterID int64  `json:"master_id,omitempty"`
}

// TupleResult is one tuple's outcome: the record shape of the
// results.jsonl artifact and of the synchronous batch endpoint's
// results array (both encode it identically). Validated is in schema
// order.
type TupleResult struct {
	Tuple     map[string]string `json:"tuple"`
	Validated []string          `json:"validated"`
	Done      bool              `json:"done"`
	Conflicts []string          `json:"conflicts,omitempty"`
	Rewrites  []Change          `json:"rewrites,omitempty"`
}

// NewTupleResult builds the record for one pipeline result. It is the
// struct-building reference implementation: the hot paths (the job
// runner's results.jsonl writer, the HTTP batch endpoint) render the
// identical bytes through ResultEncoder without materializing the
// struct, and the quick-check suite pins the two against each other.
func NewTupleResult(sch *schema.Schema, r *pipeline.Result) TupleResult {
	tr := TupleResult{
		Tuple:     r.Fixed.Map(),
		Validated: r.Chase.Validated.Names(sch),
		Done:      r.Chase.AllValidated(),
	}
	for _, c := range r.Chase.Conflicts {
		tr.Conflicts = append(tr.Conflicts, c.Error())
	}
	for _, c := range r.Chase.Rewrites() {
		tr.Rewrites = append(tr.Rewrites, Change{
			Attr: c.Attr, Old: string(c.Old), New: string(c.New),
			Source: c.Source.String(), RuleID: c.RuleID, MasterID: c.MasterID,
		})
	}
	return tr
}
