package jobs

import (
	"bufio"
	"errors"
	"fmt"
	"path/filepath"

	"cerfix/internal/faultfs"
	"cerfix/internal/jsonenc"
	"cerfix/internal/schema"
)

// Inline is a streaming inline submission. Tuples are appended to the
// job's input.jsonl as they arrive, one canonical JSONL line each, and
// the job is journaled queued only at Commit. From BeginInline until
// Commit or Abort it holds a backlog reservation, so an upload in
// progress counts against Config.MaxQueued. An Inline belongs to one
// goroutine.
type Inline struct {
	m    *Manager
	dir  string
	id   string
	f    faultfs.File
	bw   *bufio.Writer
	keys *jsonenc.MapKeys
	line []byte // reused line buffer
	n    int    // tuples added
	done bool   // committed or aborted
}

// Schema returns the input schema every job's tuples live under — the
// schema the tuples given to Inline.Add must be of.
func (m *Manager) Schema() *schema.Schema { return m.cfg.Schema }

// BeginInline starts a streaming inline submission. It takes the
// authoritative backlog reservation and allocates the job ID, then
// creates the job directory and opens its input.jsonl.
func (m *Manager) BeginInline() (*Inline, error) {
	id, dir, err := m.allocate()
	if err != nil {
		return nil, err
	}
	f, err := faultfs.Create(m.fs, filepath.Join(dir, "input.jsonl"))
	if err != nil {
		_ = m.fs.RemoveAll(dir)
		m.release()
		m.reportHealth(err)
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Inline{
		m: m, dir: dir, id: id, f: f,
		bw:   bufio.NewWriterSize(f, fileBufSize),
		keys: jsonenc.NewMapKeys(m.cfg.Schema.AttrNames()),
	}, nil
}

// Add appends one tuple of the manager's schema (Manager.Schema) to
// input.jsonl. The line is the tuple-object encoding the result
// encoders use, every attribute present (null as ""), so the run's
// JSONLSource decodes it back to the same values.
func (s *Inline) Add(tu *schema.Tuple) error {
	s.line = jsonenc.AppendStringMap(s.line[:0], s.keys, tu.Vals)
	s.line = append(s.line, '\n')
	if _, err := s.bw.Write(s.line); err != nil {
		s.m.reportHealth(err)
		return fmt.Errorf("jobs: %w", err)
	}
	s.n++
	return nil
}

// Commit finishes the submission. It rejects an empty or unknown
// validated list and a submission with no tuples (both ErrInvalid),
// then flushes, fsyncs and closes input.jsonl and journals the queued
// record, exactly as SubmitFile does. Any failure aborts the
// submission.
func (s *Inline) Commit(validated []string) (Job, error) {
	if s.done {
		return Job{}, errors.New("jobs: inline submission already finished")
	}
	if err := s.m.validateAttrs(validated); err != nil {
		s.Abort()
		return Job{}, err
	}
	if s.n == 0 {
		s.Abort()
		return Job{}, invalid(errors.New("jobs: no tuples"))
	}
	// The materialized input must be durable before the journal
	// acknowledges the job: on restart the job is re-run from this
	// file, so an unsynced copy could vanish with the crash that made
	// the re-run necessary.
	err := s.bw.Flush()
	if err == nil {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if err != nil {
		s.Abort()
		s.m.reportHealth(err)
		return Job{}, fmt.Errorf("jobs: %w", err)
	}
	s.done = true
	return s.m.enqueue(s.id, s.dir, validated, "input.jsonl", FormatJSONL)
}

// Abort abandons the submission: it removes the job directory and
// releases the backlog reservation. It is idempotent and a no-op after
// Commit, so a caller can defer it.
func (s *Inline) Abort() {
	if s.done {
		return
	}
	s.done = true
	if s.f != nil {
		_ = s.f.Close() // the directory goes next
	}
	_ = s.m.fs.RemoveAll(s.dir)
	s.m.release()
}

// InvalidTuple is the ErrInvalid error for the i-th tuple (0-based) of
// an inline submission that the schema rejected with err.
func InvalidTuple(i int, err error) error {
	return invalid(fmt.Errorf("jobs: tuple %d: %w", i, err))
}

// SubmitInline queues a job over tuples given directly; they are
// streamed into the job's input.jsonl so the job survives restarts.
func (m *Manager) SubmitInline(validated []string, tuples []map[string]string) (Job, error) {
	if err := m.Admit(); err != nil {
		return Job{}, err
	}
	sub, err := m.BeginInline()
	if err != nil {
		return Job{}, err
	}
	defer sub.Abort()
	for i, tm := range tuples {
		tu, err := schema.TupleFromMap(m.cfg.Schema, tm)
		if err != nil {
			return Job{}, InvalidTuple(i, err)
		}
		if err := sub.Add(tu); err != nil {
			return Job{}, err
		}
	}
	return sub.Commit(validated)
}
