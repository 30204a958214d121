package explore

// Fault injection against the checkpoint atomic-write path: a write
// killed mid-stream must remove its temp file and leave any previous
// checkpoint untouched, and no proper prefix of a checkpoint (the
// residue of a crash without the temp-file discipline) may ever load.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// tmpResidue lists the temp files the checkpoint writer may have left
// next to path.
func tmpResidue(t *testing.T, path string) []string {
	t.Helper()
	glob := filepath.Join(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	m, err := filepath.Glob(glob)
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return m
}

func TestCheckpointWriteKilledMidStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")

	// A good checkpoint first: this is what a later failed write must
	// not clobber.
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: path})
	if res.CheckpointErr != nil {
		t.Fatalf("baseline checkpoint: %v", res.CheckpointErr)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the next write mid-stream: truncate the temp file to half
	// and fail, as a crashed writer would.
	ckWriteFault = func(tmp string) error {
		fi, err := os.Stat(tmp)
		if err != nil {
			return err
		}
		if err := os.Truncate(tmp, fi.Size()/2); err != nil {
			return err
		}
		return fmt.Errorf("injected mid-stream kill")
	}
	defer func() { ckWriteFault = nil }()

	res = Run(mpConfig(), Options{Workers: 1, MaxConfigs: 7, CheckpointPath: path})
	if res.CheckpointErr == nil {
		t.Fatal("killed write reported no CheckpointErr")
	}
	if !strings.Contains(res.CheckpointErr.Error(), "injected mid-stream kill") {
		t.Fatalf("CheckpointErr = %v", res.CheckpointErr)
	}
	ckWriteFault = nil

	// The temp file is gone and the previous checkpoint survives,
	// byte-identical and loadable.
	if residue := tmpResidue(t, path); len(residue) != 0 {
		t.Fatalf("temp residue after killed write: %v", residue)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after killed write: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("killed write modified the previous checkpoint")
	}
	got, err := Resume(path, core.Model, Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume of the surviving checkpoint: %v", err)
	}
	want := Run(mpConfig(), Options{Workers: 1})
	if got.Explored != want.Explored || got.Verdict != want.Verdict {
		t.Fatalf("surviving checkpoint resumed to %+v, want %+v", got, want)
	}
}

func TestCheckpointWriteErrorBranchesRemoveTemp(t *testing.T) {
	// Every error branch of writeCheckpointFile must clean up: rename
	// failure (target is a directory) and temp creation failure
	// (unwritable directory) leave nothing behind.
	dir := t.TempDir()
	asDir := filepath.Join(dir, "target-is-a-dir")
	if err := os.Mkdir(asDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: asDir})
	if res.CheckpointErr == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	if residue := tmpResidue(t, asDir); len(residue) != 0 {
		t.Fatalf("temp residue after rename failure: %v", residue)
	}

	if os.Getuid() != 0 { // root ignores permission bits
		ro := filepath.Join(dir, "readonly")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		res = Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: filepath.Join(ro, "c.ckpt")})
		if res.CheckpointErr == nil {
			t.Fatal("checkpoint into a read-only directory succeeded")
		}
	}
}

func TestCheckpointPrefixNeverLoads(t *testing.T) {
	// No proper prefix of a checkpoint is loadable: a crash that left
	// partial bytes at the final path (which the temp+rename discipline
	// rules out, but this is the backstop the discipline is for) must
	// fail loudly at load, never restore a half-seen-set silently.
	dir := t.TempDir()
	path := filepath.Join(dir, "full.ckpt")
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 9, CheckpointPath: path})
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint: %v", res.CheckpointErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpointFile(path); err != nil {
		t.Fatalf("full checkpoint must load: %v", err)
	}
	part := filepath.Join(dir, "partial.ckpt")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(part, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpointFile(part); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded as a checkpoint", n, len(data))
		}
	}
}
