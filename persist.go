package cerfix

// Persistence of a configured System to a directory — the reproduction
// of the demo's "instance" configuration (§3 Initialization: schemas of
// input tuples and master data, plus the data connection). A saved
// instance is three files plus an optional log:
//
//	manifest.json — both schemas (names, attributes, domains)
//	rules.txt     — the editing rules in DSL form
//	master.csv    — the master relation checkpoint
//	wal.jsonl     — append-only log of master rows added since the
//	                checkpoint, each row as its cell strings
//
// Load rebuilds the System (and its indexes) from the checkpoint and
// replays the WAL on top.
//
// # Incremental saves
//
// Rewriting master.csv on every Save is O(master) — untenable once the
// master relation is millions of rows and the common mutation between
// saves is a handful of inserts. Save therefore keeps a cursor from
// its last save (row count, rules text). The master table is an
// append-only log (package storage), so the window since then was
// pure-append exactly when the rules did not change: the new rows are
// the log's rows after the cursor's count. Save appends them to
// dir/wal.jsonl, one record per row holding its cells as JSON strings,
// and fsyncs. A rule edit, a new cell that is not valid UTF-8 (JSON
// strings cannot carry it), a different target directory, or a fresh
// process (no cursor) falls back to the full checkpoint, which
// atomically replaces the directory (including the WAL) via the
// staging/backup dance below.
//
// # Crash safety
//
// Each WAL append is one atomic batch: the record lines land in a
// single buffered write, terminated by a commit record carrying the
// record count and a CRC32 of the batch bytes, then fsync. Replay
// buffers records until their commit validates, so a torn or partially
// flushed batch is discarded whole — never half-applied. A commit
// whose checksum fails mid-file means real corruption: replay stops
// there, preserves the unapplied tail in wal.jsonl.corrupt for
// inspection, and reports it in LoadInfo rather than failing the load.
// Every log opens with a version header record; a log without one is
// corruption too, quarantined whole rather than applied or dropped. A
// log whose header names another version fails the load instead: its
// batches may be acknowledged rows, and a quarantine would not keep
// them in the instance.
// Before appending, Save compares the file size against its cursor and
// truncates any torn tail a previous failed append left behind, so one
// bad save can never corrupt the next one.
//
// All I/O routes through an injectable filesystem (internal/faultfs),
// which is how the crash-point enumeration suite drives every prefix
// of the save/checkpoint traces through a simulated crash and reload.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"log"
	"os"
	"path/filepath"
	"unicode/utf8"

	"cerfix/internal/faultfs"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

// manifest is the on-disk schema description.
type manifest struct {
	Input  schemaJSON `json:"input"`
	Master schemaJSON `json:"master"`
}

type schemaJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

type attrJSON struct {
	Name   string `json:"name"`
	Domain string `json:"domain"`
	Desc   string `json:"desc,omitempty"`
}

func schemaToJSON(s *Schema) schemaJSON {
	out := schemaJSON{Name: s.Name()}
	for _, a := range s.Attrs() {
		out.Attrs = append(out.Attrs, attrJSON{Name: a.Name, Domain: a.Domain.String(), Desc: a.Desc})
	}
	return out
}

func schemaFromJSON(j schemaJSON) (*Schema, error) {
	attrs := make([]Attribute, len(j.Attrs))
	for i, a := range j.Attrs {
		d, err := value.ParseDomain(a.Domain)
		if err != nil {
			return nil, fmt.Errorf("cerfix: attribute %q: %w", a.Name, err)
		}
		attrs[i] = schema.Attribute{Name: a.Name, Domain: d, Desc: a.Desc}
	}
	return schema.New(j.Name, attrs...)
}

// walFile is the append-only log name inside an instance directory,
// and walQuarantineFile the name replay preserves a corrupt log's
// unapplied tail under.
const (
	walFile           = "wal.jsonl"
	walQuarantineFile = walFile + ".corrupt"
)

// walVersion is written in the header record of every WAL; replay
// treats a log that does not open with a header as corrupt, and fails
// on a header of another version.
const walVersion = 3

// walRecord is one line of wal.jsonl. Ops:
//
//	{"op":"wal","v":3}                      — header, first line of every log
//	{"op":"ins","row":<id>,"cells":[...]}   — one master row, its cell strings
//	{"op":"commit","n":K,"crc":C}           — seals the previous K records;
//	                                          C is CRC32-IEEE over their bytes
//
// The writer row id is informational (replay assigns fresh ids in
// record order).
type walRecord struct {
	Op    string     `json:"op"`
	Row   int64      `json:"row,omitempty"`
	Cells value.List `json:"cells,omitempty"`
	V     int        `json:"v,omitempty"`
	N     int        `json:"n,omitempty"`
	CRC   uint32     `json:"crc,omitempty"`
}

// walCommit is the writer-side shape of a commit record — a separate
// struct so crc is always emitted, even when it is legitimately zero.
type walCommit struct {
	Op  string `json:"op"`
	N   int    `json:"n"`
	CRC uint32 `json:"crc"`
}

// walCursor is the in-memory state Save keeps after a checkpoint so
// the next Save can append to the WAL instead. It is process-local by
// design: it vouches for the rows this process saved, so a fresh
// process (or a Load) must checkpoint once before it can append.
type walCursor struct {
	dir string
	// rows is the number of master rows the instance on disk holds;
	// rules is its rules text.
	rows  int
	rules string
	// walSize is the durable size of wal.jsonl after the last
	// successful append — anything beyond it on disk is a torn tail
	// from a failed save and is truncated before the next append.
	walSize int64
}

// Save writes the system's configuration (schemas, rules, master data)
// into dir, creating it if needed. The audit log and open sessions are
// runtime state and are not persisted.
//
// When this process has already checkpointed dir and the rules have
// not changed since (see the package comment), Save only appends the new
// rows to dir/wal.jsonl as one checksummed batch with an fsync — it
// does not rewrite master.csv. Otherwise it takes the full checkpoint
// path below.
//
// The checkpoint is atomic at the directory level: all files are
// written and fsync'd in a staging sibling (<dir>.saving), the
// previous instance is moved aside to <dir>.bak, and the staging
// directory is renamed into place in one step. A crash or error at
// any point leaves a complete instance on disk — either the old one
// (still at dir, or at <dir>.bak during the one rename window, which
// Load falls back to) or the new one. Mixed-version directories (new
// manifest with old rules) cannot occur.
//
// Save's outcome feeds the persistence health tracker when one is
// wired (SetPersistenceHealth): transient storage faults degrade,
// success restores.
func (s *System) Save(dir string) error {
	err := s.save(dir)
	if s.health != nil {
		s.health.ReportResult(err)
	}
	return err
}

func (s *System) save(dir string) error {
	dir = filepath.Clean(dir)
	if s.walCursor != nil && s.walCursor.dir == dir {
		if done, err := s.saveAppendWAL(dir); done || err != nil {
			return err
		}
		// The rules changed, or a row cannot go to the WAL: the cursor
		// is stale either way.
		s.walCursor = nil
	}
	return s.saveCheckpoint(dir)
}

// saveAppendWAL tries the incremental path. It reports done=true when
// the save was satisfied by a WAL append (or by nothing having
// changed); done=false means the rules changed or a new row cannot be
// logged, and the caller must checkpoint. On an I/O error the cursor
// is kept: nothing was acknowledged, the durable prefix is still
// exactly cur.walSize, and the next Save truncates whatever the failed
// attempt left behind and re-appends the same rows.
func (s *System) saveAppendWAL(dir string) (done bool, err error) {
	fsys := s.pfs()
	cur := s.walCursor
	if s.rules.String() != cur.rules {
		return false, nil
	}
	// The rows since the last save are the snapshot's rows after the
	// cursor's count, so the scan costs O(k), not O(n). json.Marshal
	// would replace the bytes of a cell that is not valid UTF-8, so
	// such a row is left to the checkpoint, whose CSV keeps every byte.
	snap := s.store.Table().Snapshot()
	rows := snap.Len()
	if rows == cur.rows {
		return true, nil // nothing changed since the last save
	}
	var batch bytes.Buffer
	encodable := true
	var encErr error
	snap.ScanSharedTail(cur.rows, func(tu *schema.Tuple) bool {
		for _, v := range tu.Vals {
			if !utf8.ValidString(string(v)) {
				encodable = false
				return false
			}
		}
		encErr = walWriteLine(&batch, &walRecord{Op: "ins", Row: tu.ID, Cells: tu.Vals})
		return encErr == nil
	})
	if encErr != nil {
		return false, fmt.Errorf("cerfix: wal: %w", encErr)
	}
	if !encodable {
		return false, nil
	}

	// The commit record seals the batch with its record count and a
	// checksum of the exact bytes above.
	var buf bytes.Buffer
	path := filepath.Join(dir, walFile)
	size, serr := walDiskSize(fsys, path)
	if serr != nil {
		return false, fmt.Errorf("cerfix: wal: %w", serr)
	}
	if size < cur.walSize {
		// The log shrank behind our back — external interference; the
		// cursor's view of the file is wrong. Take a fresh checkpoint.
		return false, nil
	}
	if size > cur.walSize {
		// Torn tail from a previous failed append: restore the durable
		// prefix so new batches never land after garbage.
		if err := fsys.Truncate(path, cur.walSize); err != nil {
			return false, fmt.Errorf("cerfix: wal: truncating torn tail: %w", err)
		}
		log.Printf("cerfix: wal %s: truncated %d-byte torn tail from a previous failed append", path, size-cur.walSize)
		size = cur.walSize
	}
	if size == 0 {
		if err := walWriteLine(&buf, &walRecord{Op: "wal", V: walVersion}); err != nil {
			return false, fmt.Errorf("cerfix: wal: %w", err)
		}
	}
	crc := crc32.ChecksumIEEE(batch.Bytes())
	buf.Write(batch.Bytes())
	if err := walWriteLine(&buf, walCommit{Op: "commit", N: rows - cur.rows, CRC: crc}); err != nil {
		return false, fmt.Errorf("cerfix: wal: %w", err)
	}

	// One write, then fsync: a crash can only tear the tail of the
	// batch, never interleave or reorder records — and a torn batch
	// has no valid commit, so replay discards it whole.
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return false, fmt.Errorf("cerfix: wal: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return false, fmt.Errorf("cerfix: wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("cerfix: wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("cerfix: wal: %w", err)
	}
	if size == 0 {
		// Make the new directory entry durable too. A failure here is a
		// real fault: the batch could vanish with the entry on a crash.
		if err := fsys.SyncDir(dir); err != nil {
			return false, fmt.Errorf("cerfix: wal: dir sync: %w", err)
		}
	}
	cur.rows = rows
	cur.walSize = size + int64(buf.Len())
	return true, nil
}

// walDiskSize returns the current size of the WAL file, 0 if absent.
func walDiskSize(fsys faultfs.FS, path string) (int64, error) {
	fi, err := fsys.Stat(path)
	switch {
	case err == nil:
		return fi.Size(), nil
	case errors.Is(err, iofs.ErrNotExist):
		return 0, nil
	default:
		return 0, err
	}
}

// walWriteLine appends rec to buf as one JSON line.
func walWriteLine(buf *bytes.Buffer, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf.Write(data)
	buf.WriteByte('\n')
	return nil
}

// saveCheckpoint is the full rewrite-and-swap path. Every staged file
// is fsync'd and the staging directory itself synced before the commit
// renames, so the unsynced-data-loss a crash inflicts can never leave
// a complete-looking directory with hollow files.
func (s *System) saveCheckpoint(dir string) error {
	fsys := s.pfs()
	if err := fsys.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return fmt.Errorf("cerfix: %w", err)
	}
	// Serialize master.csv and the cursor from one frozen snapshot:
	// the cursor must describe exactly the rows the checkpoint holds,
	// or a concurrent insert landing mid-save would later be appended
	// twice (cursor behind the CSV) or lost (cursor ahead of it).
	snap := s.store.Table().Snapshot()
	cur := &walCursor{dir: dir, rows: snap.Len(), rules: s.rules.String()}
	m := manifest{Input: schemaToJSON(s.input), Master: schemaToJSON(s.store.Schema())}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cerfix: %w", err)
	}

	tmp := dir + ".saving"
	bak := dir + ".bak"
	// Stale staging from a crashed save is dead weight; a fresh save
	// rebuilds it from scratch.
	if err := fsys.RemoveAll(tmp); err != nil {
		return fmt.Errorf("cerfix: %w", err)
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("cerfix: %w", err)
	}
	fail := func(err error) error {
		fsys.RemoveAll(tmp)
		return err
	}
	if err := faultfs.WriteFileSync(fsys, filepath.Join(tmp, "manifest.json"), data, 0o644); err != nil {
		return fail(fmt.Errorf("cerfix: %w", err))
	}
	if err := faultfs.WriteFileSync(fsys, filepath.Join(tmp, "rules.txt"), []byte(s.rules.String()), 0o644); err != nil {
		return fail(fmt.Errorf("cerfix: %w", err))
	}
	if err := writeCSVSync(fsys, filepath.Join(tmp, "master.csv"), snap); err != nil {
		return fail(fmt.Errorf("cerfix: %w", err))
	}
	// A quarantined WAL tail holds the only copy of bytes replay could
	// not apply, and LoadInfo keeps reporting its path: carry it into
	// the new instance, or the swap below deletes it with the old one.
	if q, err := fsys.ReadFile(filepath.Join(dir, walQuarantineFile)); err == nil {
		if err := faultfs.WriteFileSync(fsys, filepath.Join(tmp, walQuarantineFile), q, 0o644); err != nil {
			return fail(fmt.Errorf("cerfix: %w", err))
		}
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return fail(fmt.Errorf("cerfix: %w", err))
	}
	// The staged entries must be durable before they can be renamed
	// into place as the instance of record.
	if err := fsys.SyncDir(tmp); err != nil {
		return fail(fmt.Errorf("cerfix: %w", err))
	}

	// Commit: old instance aside, staging in, backup gone.
	if _, err := fsys.Stat(dir); err == nil {
		if err := fsys.RemoveAll(bak); err != nil {
			return fail(fmt.Errorf("cerfix: %w", err))
		}
		if err := fsys.Rename(dir, bak); err != nil {
			return fail(fmt.Errorf("cerfix: %w", err))
		}
	}
	if err := fsys.Rename(tmp, dir); err != nil {
		// Put the previous instance back; if even that fails, Load's
		// .bak fallback still finds it.
		_ = fsys.Rename(bak, dir)
		return fail(fmt.Errorf("cerfix: %w", err))
	}
	_ = fsys.RemoveAll(bak)
	// Make the commit renames durable. On failure the directory is
	// consistent (the new instance) but its durability is unproven —
	// report it so callers retry rather than acknowledge.
	if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
		return fmt.Errorf("cerfix: %w", err)
	}
	s.walCursor = cur
	return nil
}

// writeCSVSync streams the snapshot as CSV through the injectable
// filesystem and fsyncs it.
func writeCSVSync(fsys faultfs.FS, path string, snap *storage.Table) error {
	f, err := faultfs.Create(fsys, path)
	if err != nil {
		return err
	}
	if err := snap.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadInfo reports where a Load resolved its instance from — surfaced
// on GET /api/v1/status so operators can see when a daemon silently
// recovered from a backup, replayed a write-ahead log, or quarantined
// a corrupt log tail.
type LoadInfo struct {
	// Dir is the directory actually loaded (the requested one, or its
	// .bak sibling on fallback).
	Dir string `json:"dir"`
	// UsedBackup is true when the requested directory was incomplete
	// and the .bak sibling was loaded instead.
	UsedBackup bool `json:"used_backup"`
	// WALRows counts the master rows replayed from wal.jsonl, one per
	// ins record; WALBytes is the log size.
	WALRows  int   `json:"wal_rows"`
	WALBytes int64 `json:"wal_bytes"`
	// WALBatches counts committed (checksum-verified) batches applied.
	WALBatches int `json:"wal_batches"`
	// WALTornTail is true when replay discarded an uncommitted tail —
	// the expected residue of a crash mid-append, not corruption.
	WALTornTail bool `json:"wal_torn_tail,omitempty"`
	// WALCorrupt is true when a committed batch failed its checksum or
	// the log lacked its v3 header; replay stopped there and preserved
	// the unapplied tail at WALQuarantine for inspection.
	WALCorrupt    bool   `json:"wal_corrupt,omitempty"`
	WALQuarantine string `json:"wal_quarantine,omitempty"`
}

// LoadInfo returns the provenance of this system if it was built by
// Load, nil for systems constructed in memory.
func (s *System) LoadInfo() *LoadInfo { return s.loadInfo }

// Load rebuilds a System from a directory written by Save: the
// checkpoint files first, then any wal.jsonl replayed on top. If dir
// has no manifest but a complete <dir>.bak sibling exists, the backup
// is loaded — that is the instance a crash caught between Save's two
// commit renames — and the fallback is logged, since it means the
// newest save was lost.
func Load(dir string) (*System, error) { return LoadFS(faultfs.OS, dir) }

// LoadFS is Load through an explicit filesystem — the entry point the
// fault harness uses to reload through an injector. The returned
// system keeps fsys for its own future saves.
func LoadFS(fsys faultfs.FS, dir string) (*System, error) {
	dir = filepath.Clean(dir)
	sys, err := loadDir(fsys, dir)
	if err == nil {
		return sys, nil
	}
	if _, statErr := fsys.Stat(filepath.Join(dir, "manifest.json")); errors.Is(statErr, iofs.ErrNotExist) {
		if _, bakErr := fsys.Stat(filepath.Join(dir+".bak", "manifest.json")); bakErr == nil {
			log.Printf("cerfix: instance %s is incomplete (%v); loading backup %s", dir, err, dir+".bak")
			sys, bakErr := loadDir(fsys, dir+".bak")
			if bakErr != nil {
				return nil, bakErr
			}
			sys.loadInfo.UsedBackup = true
			return sys, nil
		}
	}
	return nil, err
}

func loadDir(fsys faultfs.FS, dir string) (*System, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("cerfix: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cerfix: manifest: %w", err)
	}
	input, err := schemaFromJSON(m.Input)
	if err != nil {
		return nil, err
	}
	masterSch, err := schemaFromJSON(m.Master)
	if err != nil {
		return nil, err
	}
	dsl, err := fsys.ReadFile(filepath.Join(dir, "rules.txt"))
	if err != nil {
		return nil, fmt.Errorf("cerfix: %w", err)
	}
	sys, err := New(input, masterSch, string(dsl))
	if err != nil {
		return nil, err
	}
	sys.fs = fsys
	f, err := fsys.Open(filepath.Join(dir, "master.csv"))
	if err != nil {
		return nil, fmt.Errorf("cerfix: %w", err)
	}
	defer f.Close()
	if err := sys.LoadMasterCSV(f); err != nil {
		return nil, err
	}
	info := &LoadInfo{Dir: dir}
	if err := sys.replayWAL(fsys, filepath.Join(dir, walFile), info); err != nil {
		return nil, err
	}
	sys.loadInfo = info
	return sys, nil
}

// replayWAL applies wal.jsonl on top of a freshly loaded checkpoint,
// batch-at-a-time. The first non-blank record must be the header
// {"op":"wal","v":3}; a log without one is corruption and is
// quarantined whole, and a header of another version is an error that
// leaves the file as it is. Records buffer until their commit record's
// count and CRC32 validate, then apply atomically. An uncommitted tail
// (crash mid-append) is discarded whole and flagged WALTornTail; a
// committed batch that fails its checksum is corruption — replay
// stops, the unapplied tail is preserved at wal.jsonl.corrupt, and the
// load succeeds on the verified prefix with WALCorrupt set.
func (s *System) replayWAL(fsys faultfs.FS, path string, info *LoadInfo) error {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil // no WAL: the checkpoint is the whole instance
	}
	if err != nil {
		return fmt.Errorf("cerfix: wal: %w", err)
	}
	info.WALBytes = int64(len(data))

	arity := s.store.Schema().Len()
	var pendingRows []*walRecord
	var crc uint32
	count := 0
	batchStart := -1 // byte offset of the current uncommitted batch

	// corrupt quarantines everything unapplied: from the start of the
	// open batch, or from off when no batch is open.
	corrupt := func(off int, why string) error {
		if batchStart >= 0 {
			off = batchStart
		}
		tail := data[off:]
		q := filepath.Join(filepath.Dir(path), walQuarantineFile)
		if werr := fsys.WriteFile(q, tail, 0o644); werr != nil {
			log.Printf("cerfix: wal %s: %s after %d applied rows; quarantine write failed: %v", path, why, info.WALRows, werr)
			q = ""
		} else {
			log.Printf("cerfix: wal %s: %s after %d applied rows; unapplied tail (%d bytes) preserved at %s", path, why, info.WALRows, len(tail), q)
		}
		info.WALCorrupt = true
		info.WALQuarantine = q
		return nil
	}

	off := 0
	header := false
	for off < len(data) {
		lineStart := off
		var line []byte
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			line = data[off : off+i]
			off += i + 1
		} else {
			line = data[off:]
			off = len(data)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec walRecord
		if json.Unmarshal(line, &rec) != nil {
			if len(bytes.TrimSpace(data[off:])) == 0 {
				// Undecodable final line: the torn tail of a crashed
				// append. The uncommitted batch it belongs to is
				// discarded whole.
				info.WALTornTail = true
				log.Printf("cerfix: wal %s: discarding uncommitted torn tail after %d rows", path, info.WALRows)
				return nil
			}
			return corrupt(lineStart, "undecodable record with data after it")
		}
		if !header && rec.Op == "wal" && rec.V != walVersion {
			return fmt.Errorf("cerfix: wal %s: log is format v%d, this build reads only v%d", path, rec.V, walVersion)
		}
		if !header && rec.Op != "wal" {
			return corrupt(0, "missing v3 header")
		}
		switch rec.Op {
		case "wal":
			if header {
				return corrupt(lineStart, "stray header record")
			}
			header = true
		case "ins":
			if batchStart < 0 {
				batchStart = lineStart
			}
			crc = crc32.Update(crc, crc32.IEEETable, data[lineStart:off])
			count++
			pendingRows = append(pendingRows, &rec)
		case "commit":
			if rec.N != count || rec.CRC != crc {
				return corrupt(lineStart, fmt.Sprintf("batch checksum mismatch (want n=%d crc=%08x, have n=%d crc=%08x)", rec.N, rec.CRC, count, crc))
			}
			for _, row := range pendingRows {
				if len(row.Cells) != arity {
					return fmt.Errorf("cerfix: wal %s: row %d has %d cells, schema wants %d",
						path, row.Row, len(row.Cells), arity)
				}
				if _, err := s.store.InsertValues(row.Cells...); err != nil {
					return fmt.Errorf("cerfix: wal %s: row %d: %w", path, row.Row, err)
				}
				info.WALRows++
			}
			info.WALBatches++
			pendingRows = nil
			crc, count, batchStart = 0, 0, -1
		default:
			return corrupt(lineStart, fmt.Sprintf("unknown op %q", rec.Op))
		}
	}
	if count > 0 {
		// Records without a commit: the append crashed before (or
		// during) its seal. Acknowledged data always has a commit, so
		// this is a torn tail, not loss.
		info.WALTornTail = true
		log.Printf("cerfix: wal %s: discarding uncommitted batch of %d record(s) at tail", path, count)
	}
	return nil
}
