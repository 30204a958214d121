package explore

// Checkpoint/resume: a search can persist its sharded seen-set and
// frontier to disk and be continued later — across process restarts —
// by Resume. The checkpoint is written at a consistent cut: the pool
// is suspended (periodic checkpoints) or has stopped (final
// checkpoint), so every seen entry is either fully expanded or has its
// configuration on the frontier, and the frontier configurations are
// serialised through the model's snapshot support
// (model.Config.AppendSnapshot / model.Model.Restore).
//
// Resuming reaches the same fixpoint as an uninterrupted run: the
// engine's depth and sleep-mask relaxations are monotone and
// re-admission is idempotent, so the terminated-state fingerprint set,
// Explored, Depth and the verdict are functions of the search
// parameters alone, not of where (or how often) the search was
// interrupted. The checkpoint/resume equivalence test asserts exactly
// this on the E13 workload.
//
// Format: a gob stream of one checkpointFile value, versioned, keyed
// by 128-bit fingerprints. Entry metadata (depth, sleep mask,
// expansion state) restores the relaxation fixpoint-in-progress;
// frontier snapshots restore the pending configurations; a recorded
// violation restores the verdict. Writes are atomic (temp file +
// rename), so a crash mid-write leaves the previous checkpoint intact.

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/model"
	"repro/internal/sc"
	"repro/internal/telemetry"
)

// checkpointVersion is bumped on any incompatible format change;
// Resume rejects other versions. Version 2 added an opaque caller blob,
// Extra, that the format no longer has: gob skips a field the target
// type lacks, so v2 files that carry one still decode and resume.
const checkpointVersion = 2

// checkpointEntry is one serialised seen-set record. Expandable is
// always !Term; it stays in the format so older checkpoints decode
// unchanged.
type checkpointEntry struct {
	FP            fingerprint.FP
	Depth         int32
	ExpandedAt    int32
	Sleep         uint64
	ExpandedSleep uint64
	Expandable    bool
	Term          bool
}

// entry is the seen-set record ce restores.
func (ce *checkpointEntry) entry() entry {
	e := newEntry(ce.Depth, threadMask(ce.Sleep), ce.Term)
	e.expandedAt = ce.ExpandedAt
	e.expandedSleep = threadMask(ce.ExpandedSleep)
	return e
}

// check reports why ce cannot be a seen-set record, or nil.
func (ce *checkpointEntry) check() error {
	switch {
	case ce.Expandable == ce.Term:
		return fmt.Errorf("entry %v: expandable=%v with term=%v", ce.FP, ce.Expandable, ce.Term)
	case ce.Depth < 0 || ce.Depth > maxDepth:
		return fmt.Errorf("entry %v: depth %d outside [0, %d]", ce.FP, ce.Depth, maxDepth)
	case ce.ExpandedAt < -1:
		return fmt.Errorf("entry %v: expanded at %d", ce.FP, ce.ExpandedAt)
	}
	return nil
}

// checkpointItem is one serialised frontier configuration.
type checkpointItem struct {
	FP       fingerprint.FP
	Snapshot []byte
}

// checkpointFile is the on-disk checkpoint container.
type checkpointFile struct {
	Version    int
	NInit      int
	MaxEvents  int
	POR        bool
	Truncated  bool
	Explored   int
	Terminated int
	// Violation is the snapshot of the violating configuration (nil
	// if none): a violated search resumes to its final verdict
	// immediately.
	Violation []byte
	Entries   []checkpointEntry
	Frontier  []checkpointItem
}

// writeCheckpoint persists the current search state to
// opts.CheckpointPath. Only called while the pool is stopped or
// suspended (no workers running), so the shards and deques are stable.
func (r *run[C]) writeCheckpoint() error {
	if r.opts.CheckpointPath == "" {
		return nil
	}
	panicked := make(map[fingerprint.FP]bool, len(r.panicItems))
	for _, it := range r.panicItems {
		panicked[it.fp] = true
	}
	ck := checkpointFile{
		Version:    checkpointVersion,
		NInit:      r.nInit,
		MaxEvents:  r.maxEv,
		POR:        r.opts.POR,
		Truncated:  r.truncated.Load(),
		Explored:   int(r.explored.Load()),
		Terminated: int(r.terminated.Load()),
	}
	if v := r.violation.Load(); v != nil {
		ck.Violation = (*v).AppendSnapshot(nil)
	}
	for i := range r.shards {
		for fp, e := range r.shards[i].seen.all {
			ce := checkpointEntry{
				FP:            fp,
				Depth:         e.depth(),
				ExpandedAt:    e.expandedAt,
				Sleep:         uint64(e.sleep),
				ExpandedSleep: uint64(e.expandedSleep),
				Expandable:    !e.term(),
				Term:          e.term(),
			}
			if panicked[fp] {
				// The live run does not retry a panicked expansion,
				// but a resume (after a fix) should: re-open it.
				ce.ExpandedAt, ce.ExpandedSleep = -1, 0
			}
			ck.Entries = append(ck.Entries, ce)
		}
	}
	for _, it := range r.frontierItems() {
		ck.Frontier = append(ck.Frontier, checkpointItem{
			FP:       it.fp,
			Snapshot: it.cfg.AppendSnapshot(nil),
		})
	}
	if err := writeCheckpointFile(r.opts.CheckpointPath, &ck); err != nil {
		return err
	}
	r.tel.Add(telemetry.EngineCheckpointWrites, 1)
	if r.tracer != nil {
		r.tracer.Instant("checkpoint", -1, map[string]any{
			"entries": len(ck.Entries), "frontier": len(ck.Frontier)})
	}
	return nil
}

// ckWriteFault, when non-nil, runs after the gob stream is written to
// the temp file and before it is synced and renamed into place. It is
// a fault-injection seam for the checkpoint tests: returning an error
// simulates a write killed mid-stream (the test may also corrupt or
// truncate the temp file first), and the write path must then remove
// the temp file and leave any previous checkpoint untouched.
var ckWriteFault func(tmp string) error

func writeCheckpointFile(path string, ck *checkpointFile) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("explore: checkpoint: %w", err)
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("explore: checkpoint encode: %w", err)
	}
	if ckWriteFault != nil {
		if err := ckWriteFault(tmp); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("explore: checkpoint write: %w", err)
		}
	}
	// Sync before rename: the rename must never make a checkpoint
	// visible whose bytes could still be lost to a crash — a resumed
	// run trusts whatever sits at path.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("explore: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("explore: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("explore: checkpoint rename: %w", err)
	}
	return nil
}

func loadCheckpointFile(path string) (*checkpointFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("explore: checkpoint: %w", err)
	}
	defer f.Close()
	ck, err := decodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint reads one checkpointFile from r and checks the
// container's invariants. Every corruption is an error: the input is
// a file on disk, not trusted engine state.
func decodeCheckpoint(r io.Reader) (*checkpointFile, error) {
	var ck checkpointFile
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Explored != len(ck.Entries) {
		return nil, fmt.Errorf("inconsistent: %d entries for Explored=%d", len(ck.Entries), ck.Explored)
	}
	for i := range ck.Entries {
		if err := ck.Entries[i].check(); err != nil {
			return nil, err
		}
	}
	return &ck, nil
}

// Resume continues a checkpointed search of model m under opts. The
// search-identity parameters (MaxEvents, POR) are taken from the
// checkpoint — they are part of what the seen-set means — while
// budgets, worker count, property, hooks and checkpoint settings come
// from opts. Frontier snapshots are restored through m.Restore and
// verified against their recorded fingerprints, so a checkpoint from a
// different backend or a corrupted file fails loudly. Resuming a
// finished checkpoint is idempotent; resuming a violated one returns
// the violated result immediately. m must be one of the repository's
// backends (rar or sc); any other model is an error.
func Resume(path string, m model.Model, opts Options) (Result, error) {
	ck, err := loadCheckpointFile(path)
	if err != nil {
		return Result{}, err
	}
	opts.MaxEvents = ck.MaxEvents
	opts.POR = ck.POR
	// Monomorphise like Run: the backend's name picks the concrete
	// instantiation (the restored frontier configurations are verified
	// to be of its configuration type).
	switch m.Name() {
	case "rar":
		return resumeAs[core.Config](path, ck, m, opts)
	case "sc":
		return resumeAs[sc.Config](path, ck, m, opts)
	default:
		return Result{}, fmt.Errorf("explore: checkpoint %s: unsupported model %q", path, m.Name())
	}
}

// resumeAs restores the checkpointed seen-set and frontier into one
// engine instantiation and continues the search.
func resumeAs[C config[C]](path string, ck *checkpointFile, m model.Model, opts Options) (Result, error) {
	r := newRun[C](opts)
	r.nInit = ck.NInit
	nTerm := 0
	for i := range ck.Entries {
		ce := &ck.Entries[i]
		t := &r.shardOf(ce.FP).seen
		if t.find(ce.FP) != nil {
			return Result{}, fmt.Errorf("explore: checkpoint %s has duplicate entry %v", path, ce.FP)
		}
		t.insert(ce.FP, ce.entry())
		if ce.Term {
			nTerm++
		}
	}
	if nTerm != ck.Terminated {
		return Result{}, fmt.Errorf("explore: checkpoint %s is inconsistent: %d terminated entries for Terminated=%d",
			path, nTerm, ck.Terminated)
	}
	r.explored.Store(int64(ck.Explored))
	r.terminated.Store(int64(nTerm))
	r.truncated.Store(ck.Truncated)
	// Replay the seen-set into the collector so audits built on
	// Resume observe the complete reachable set, not just the portion
	// explored after the interruption.
	if r.opts.collect != nil {
		for _, ce := range ck.Entries {
			r.opts.collect(ce.FP, ce.Term)
		}
	}
	queued := make(map[fingerprint.FP]bool, len(ck.Frontier))
	for _, fi := range ck.Frontier {
		mc, err := m.Restore(fi.Snapshot)
		if err != nil {
			return Result{}, fmt.Errorf("explore: checkpoint %s frontier: %w", path, err)
		}
		c, ok := mc.(C)
		if !ok {
			return Result{}, fmt.Errorf("explore: checkpoint %s frontier: %s restored a %T, not the backend's configuration type",
				path, m.Name(), mc)
		}
		if got := c.Fingerprint(); got != fi.FP {
			return Result{}, fmt.Errorf("explore: checkpoint %s frontier snapshot drifted: restored %v, recorded %v",
				path, got, fi.FP)
		}
		if r.shardOf(fi.FP).seen.find(fi.FP) == nil {
			return Result{}, fmt.Errorf("explore: checkpoint %s frontier config %v has no seen-set entry", path, fi.FP)
		}
		r.pool.push(0, item[C]{cfg: c, fp: fi.FP})
		queued[fi.FP] = true
	}
	if len(ck.Violation) == 0 {
		// At a consistent cut every entry with work left is queued on
		// the frontier (only the violating configuration, never
		// queued, is exempt). An unqueued one would never be expanded,
		// and the resumed search would report PROVED over the hole.
		for _, ce := range ck.Entries {
			if e := r.shardOf(ce.FP).seen.find(ce.FP); !e.term() && !e.expanded() && !queued[ce.FP] {
				return Result{}, fmt.Errorf("explore: checkpoint %s is inconsistent: unexpanded entry %v is not on the frontier",
					path, ce.FP)
			}
		}
	}
	if len(ck.Violation) > 0 {
		c, err := m.Restore(ck.Violation)
		if err != nil {
			return Result{}, fmt.Errorf("explore: checkpoint %s violation: %w", path, err)
		}
		r.violation.Store(&c)
		r.requested.Store(int32(StopViolation))
		r.stop.Store(int32(StopViolation))
		// The verdict is final; nothing further runs.
		return r.finalize(), nil
	}
	if r.tracer != nil {
		r.tracer.Emit(telemetry.Record{Type: "begin", Name: "search", Worker: -1,
			Args: map[string]any{"resume": path, "workers": opts.workers(), "max_events": r.maxEv, "por": opts.POR}})
	}
	r.execute()
	res := r.finalize()
	if r.tracer != nil {
		r.tracer.End("search", -1, map[string]any{
			"verdict": res.Verdict.String(), "stop": res.Stop.String(),
			"explored": res.Explored, "frontier": res.Frontier})
	}
	return res, nil
}

// CheckpointInterval is a convenience guard for CLI flag plumbing: it
// validates that a periodic interval has a path to write to.
func CheckpointInterval(path string, every time.Duration) error {
	if every > 0 && path == "" {
		return fmt.Errorf("explore: a checkpoint interval needs a checkpoint path")
	}
	return nil
}
