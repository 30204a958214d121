package explore

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sc"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder
// behind Resume. Corrupt input must come back as an error — no panic,
// no hang, no allocation out of proportion to the input — and a
// checkpoint that decodes must restore (or be rejected) under either
// backend the same way. The seeds are real checkpoints: the mp program
// cut and complete, and Peterson at bound 8 cut, complete and
// violated, and cut under sc; the committed mp cut checkpoint that
// carries the dropped Extra field; plus the mp cut checkpoint with one
// entry corrupted in each way decodeCheckpoint rejects.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	addCheckpoint := func(name string, c model.Config, opts Options) []byte {
		opts.Workers = 1
		opts.CheckpointPath = filepath.Join(dir, name)
		if res := Run(c, opts); res.CheckpointErr != nil {
			f.Fatalf("%s: %v", name, res.CheckpointErr)
		}
		data, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		return data
	}
	p, vars := petersonProg()
	weak, wvars := petersonWeakProg()
	mpCut := addCheckpoint("mp-cut", mpConfig(), Options{MaxConfigs: 5})
	for _, bad := range badEntries {
		f.Add(corruptEntry(f, mpCut, bad.edit))
	}
	addCheckpoint("mp", mpConfig(), Options{})
	addCheckpoint("peterson-cut", core.NewConfig(p, vars), Options{MaxEvents: 8, MaxConfigs: 60})
	addCheckpoint("peterson", core.NewConfig(p, vars), Options{MaxEvents: 8})
	addCheckpoint("peterson-weak", core.NewConfig(weak, wvars), Options{MaxEvents: 8, Property: mutualExclusion})
	addCheckpoint("peterson-sc-cut", sc.NewConfig(p, vars), Options{MaxConfigs: 20})
	extra, err := os.ReadFile("testdata/mp-cut-extra-0128a7b.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(extra)

	// A done context returns from the resumed search before any
	// expansion, so that resume runs only the restore path; a second
	// resume then continues the search under a small state budget,
	// which must end it whatever the corrupted metadata says.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, m := range []model.Model{core.Model, sc.Model} {
			resume := resumeAs[core.Config] // what Resume picks by model name
			if m.Name() == "sc" {
				resume = resumeAs[sc.Config]
			}
			res, err := resume("fuzz", ck, m, Options{Workers: 1, Context: done})
			if err != nil {
				continue
			}
			if res.Explored != ck.Explored {
				t.Fatalf("%s: resumed Explored = %d, checkpoint recorded %d", m.Name(), res.Explored, ck.Explored)
			}
			// Every entry with work left must be back on the frontier,
			// or a resume would report PROVED over the unexpanded rest.
			if n := unfinished(ck); len(ck.Violation) == 0 && res.Frontier != n {
				t.Fatalf("%s: resumed Frontier = %d, but %d entries have work left", m.Name(), res.Frontier, n)
			}
			res, err = resume("fuzz", ck, m, Options{Workers: 1, MaxEvents: ck.MaxEvents, POR: ck.POR, MaxConfigs: ck.Explored + 16})
			if err != nil {
				t.Fatalf("%s: second resume of an accepted checkpoint failed: %v", m.Name(), err)
			}
			if res.Explored > ck.Explored+16 {
				t.Fatalf("%s: resume explored %d past its budget %d", m.Name(), res.Explored, ck.Explored+16)
			}
		}
	})
}

// badEntries are the entry corruptions decodeCheckpoint rejects: each
// describes a record no seen-set slot can hold.
var badEntries = []struct {
	name string
	edit func(*checkpointEntry)
}{
	{"expandable-terminated", func(ce *checkpointEntry) { ce.Expandable, ce.Term = true, true }},
	{"neither-expandable-nor-terminated", func(ce *checkpointEntry) { ce.Expandable, ce.Term = false, false }},
	{"negative-depth", func(ce *checkpointEntry) { ce.Depth = -1 }},
	{"depth-past-slot", func(ce *checkpointEntry) { ce.Depth = maxDepth + 1 }},
	{"expanded-below-minus-one", func(ce *checkpointEntry) { ce.ExpandedAt = -2 }},
}

// corruptEntry re-encodes the checkpoint data with edit applied to its
// first entry.
func corruptEntry(tb testing.TB, data []byte, edit func(*checkpointEntry)) []byte {
	tb.Helper()
	var ck checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		tb.Fatal(err)
	}
	edit(&ck.Entries[0])
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeCheckpointRejectsEntries: each corruption in badEntries,
// applied to an otherwise valid checkpoint, is a decode error.
func TestDecodeCheckpointRejectsEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mp-cut.ckpt")
	if res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: path}); res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("valid checkpoint: %v", err)
	}
	for _, bad := range badEntries {
		if _, err := decodeCheckpoint(bytes.NewReader(corruptEntry(t, data, bad.edit))); err == nil {
			t.Errorf("%s: decoded without error", bad.name)
		}
	}
}

// unfinished counts the checkpoint's entries with work left:
// expandable, and not expanded at their recorded depth and sleep mask.
func unfinished(ck *checkpointFile) int {
	n := 0
	for i := range ck.Entries {
		if e := ck.Entries[i].entry(); !e.term() && !e.expanded() {
			n++
		}
	}
	return n
}
