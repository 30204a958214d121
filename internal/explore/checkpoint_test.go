package explore

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/sc"
)

// petersonProg is Peterson's mutual-exclusion algorithm in its correct
// release-acquire form — the E13 workload, rebuilt here because the
// litmus catalog sits above this package. Kept structurally identical
// to litmus.Peterson.
func petersonProg() (lang.Prog, map[event.Var]event.Val) {
	thread := func(t int) lang.Com {
		other := 3 - t
		me := event.Var(fmt.Sprintf("flag%d", t))
		you := event.Var(fmt.Sprintf("flag%d", other))
		guard := lang.And(
			lang.Eq(lang.XA(you), lang.B(true)),
			lang.Eq(lang.X("turn"), lang.V(event.Val(other))),
		)
		return lang.SeqC(
			lang.AssignC(me, lang.B(true)),
			lang.SwapC("turn", event.Val(other)),
			lang.WhileC(guard, lang.SkipC()),
			lang.LabelC("cs", lang.SkipC()),
			lang.AssignRelC(me, lang.B(false)),
		)
	}
	return lang.Prog{thread(1), thread(2)},
		map[event.Var]event.Val{"flag1": 0, "flag2": 0, "turn": 1}
}

// petersonWeakProg is the broken variant (plain relaxed write to turn
// instead of the RA swap), which violates mutual exclusion under RAR.
func petersonWeakProg() (lang.Prog, map[event.Var]event.Val) {
	p, vars := petersonProg()
	for t := 1; t <= 2; t++ {
		seq := p[t-1].(lang.Seq)
		inner := seq.C2.(lang.Seq)
		inner.C1 = lang.AssignC("turn", lang.V(event.Val(3-t)))
		seq.C2 = inner
		p[t-1] = seq
	}
	return p, vars
}

func mutualExclusion(c model.Config) bool {
	p := c.Program()
	return !(lang.AtLabel(p.Thread(1)) == "cs" && lang.AtLabel(p.Thread(2)) == "cs")
}

// cancelAfter returns Hooks that cancel ctx after n expansions — a
// deterministic-count (but schedule-arbitrary) interruption point.
func cancelAfter(n int32, cancel context.CancelFunc) Hooks {
	var calls atomic.Int32
	return hookFunc(func(fingerprint.FP, int) {
		if calls.Add(1) == n {
			cancel()
		}
	})
}

// resumeUntilDone drives a checkpointed search to its fixpoint by
// resuming with fresh random interruption points until a leg finishes
// uninterrupted, and returns the final result plus the final leg's
// collector (Resume replays the checkpointed seen-set into it, so it
// holds the complete sets).
func resumeUntilDone(t *testing.T, path string, m model.Model, opts Options, rng *rand.Rand) (Result, *fpCollector) {
	t.Helper()
	for leg := 0; leg < 200; leg++ {
		ctx, cancel := context.WithCancel(context.Background())
		fps := newFPCollector()
		o := opts
		o.Context = ctx
		o.Hooks = cancelAfter(int32(1+rng.Intn(60)), cancel)
		o.collect = fps.observe
		res, err := Resume(path, m, o)
		cancel()
		if err != nil {
			t.Fatalf("resume leg %d: %v", leg, err)
		}
		if res.Stop != StopCancelled {
			return res, fps
		}
	}
	t.Fatal("search did not converge in 200 resume legs")
	return Result{}, nil
}

// TestCheckpointResumeEquivalence is the E13 equivalence gate:
// Peterson at MaxEvents=12, interrupted at a random point and resumed
// (repeatedly, each leg interrupted again at random) must reach
// exactly the fixpoint of an uninterrupted run — same Explored,
// Terminated, Depth, Truncated, verdict and terminated-state
// fingerprint set — serially and in parallel, under both memory
// models.
func TestCheckpointResumeEquivalence(t *testing.T) {
	p, vars := petersonProg()
	cases := []struct {
		name string
		m    model.Model
		opts Options
	}{
		{"rar-serial", core.Model, Options{MaxEvents: 12, Workers: 1}},
		{"rar-parallel", core.Model, Options{MaxEvents: 12, Workers: 8}},
		{"rar-serial-por", core.Model, Options{MaxEvents: 12, Workers: 1, POR: true}},
		{"sc-serial", sc.Model, Options{MaxEvents: 12, Workers: 1}},
		{"sc-parallel", sc.Model, Options{MaxEvents: 12, Workers: 8}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + i)))

			wantFPs := newFPCollector()
			wo := tc.opts
			wo.Property = mutualExclusion
			wo.collect = wantFPs.observe
			want := Run(tc.m.New(p, vars), wo)
			if want.Verdict != VerdictProved {
				t.Fatalf("uninterrupted run: %v (stop %v)", want.Verdict, want.Stop)
			}

			// Interrupted initial leg: cancel after a random number of
			// expansions, with a final checkpoint on the way out.
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			io := tc.opts
			io.Property = mutualExclusion
			io.Context = ctx
			io.Hooks = cancelAfter(int32(1+rng.Intn(60)), cancel)
			io.CheckpointPath = path
			first := Run(tc.m.New(p, vars), io)
			cancel()
			if first.CheckpointErr != nil {
				t.Fatalf("checkpoint: %v", first.CheckpointErr)
			}
			if first.Stop == StopCancelled && first.Verdict != VerdictBounded {
				t.Fatalf("interrupted run: Verdict = %v", first.Verdict)
			}

			ro := tc.opts
			ro.Property = mutualExclusion
			ro.CheckpointPath = path
			got, gotFPs := resumeUntilDone(t, path, tc.m, ro, rng)

			if got.Verdict != want.Verdict || got.Stop != want.Stop {
				t.Fatalf("resumed verdict %v/%v != uninterrupted %v/%v", got.Verdict, got.Stop, want.Verdict, want.Stop)
			}
			if got.Explored != want.Explored || got.Terminated != want.Terminated ||
				got.Depth != want.Depth || got.Truncated != want.Truncated {
				t.Fatalf("resumed fixpoint diverged:\n got explored=%d term=%d depth=%d trunc=%v\nwant explored=%d term=%d depth=%v trunc=%v",
					got.Explored, got.Terminated, got.Depth, got.Truncated,
					want.Explored, want.Terminated, want.Depth, want.Truncated)
			}
			if got.Frontier != 0 {
				t.Fatalf("resumed run finished with Frontier = %d", got.Frontier)
			}
			if n := wantFPs.terminated.MissingFrom(gotFPs.terminated); n != 0 {
				t.Fatalf("%d terminated fingerprints missing from the resumed run", n)
			}
			if n := gotFPs.terminated.MissingFrom(wantFPs.terminated); n != 0 {
				t.Fatalf("%d extra terminated fingerprints in the resumed run", n)
			}
		})
	}
}

func TestPeriodicCheckpointing(t *testing.T) {
	// A run that checkpoints every millisecond (with enough injected
	// latency that several suspensions actually happen) must still
	// reach the uninterrupted fixpoint, and the final checkpoint must
	// resume idempotently.
	p, vars := petersonProg()
	want := Run(core.Model.New(p, vars), Options{MaxEvents: 10, Workers: 4})

	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	res := Run(core.Model.New(p, vars), Options{
		MaxEvents:       10,
		Workers:         4,
		Hooks:           sleepHook(20 * time.Microsecond),
		CheckpointPath:  path,
		CheckpointEvery: 5 * time.Millisecond,
	})
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint: %v", res.CheckpointErr)
	}
	if res.Verdict != VerdictProved || res.Stop != StopNone {
		t.Fatalf("Verdict = %v, Stop = %v", res.Verdict, res.Stop)
	}
	if res.Explored != want.Explored || res.Terminated != want.Terminated || res.Depth != want.Depth {
		t.Fatalf("periodic checkpointing changed the result: %+v vs %+v", res, want)
	}

	// Resuming a finished checkpoint is a no-op returning the same
	// fixpoint.
	again, err := Resume(path, core.Model, Options{Workers: 4})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if again.Explored != want.Explored || again.Terminated != want.Terminated ||
		again.Verdict != VerdictProved || again.Frontier != 0 {
		t.Fatalf("finished checkpoint did not resume idempotently: %+v", again)
	}
}

func TestViolationCheckpointResume(t *testing.T) {
	// A violated search checkpoints its verdict: resuming restores the
	// violating configuration immediately, without re-searching.
	p, vars := petersonWeakProg()
	path := filepath.Join(t.TempDir(), "violation.ckpt")
	res := Run(core.Model.New(p, vars), Options{
		MaxEvents:      12,
		Workers:        1,
		Property:       mutualExclusion,
		CheckpointPath: path,
	})
	if res.Verdict != VerdictViolated {
		t.Fatalf("weak Peterson should violate mutual exclusion, got %v", res.Verdict)
	}
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint: %v", res.CheckpointErr)
	}
	got, err := Resume(path, core.Model, Options{Workers: 1, Property: mutualExclusion})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Verdict != VerdictViolated || got.Stop != StopViolation || got.Violation == nil {
		t.Fatalf("resumed verdict: %+v", got)
	}
	if got.Violation.Fingerprint() != res.Violation.Fingerprint() {
		t.Fatalf("resumed violation %v != original %v", got.Violation.Fingerprint(), res.Violation.Fingerprint())
	}
	if !mutualExclusion(got.Violation) == false {
		t.Fatal("restored violation does not falsify the property")
	}
}

func TestCheckpointAfterPanicReopensWork(t *testing.T) {
	// A panicked expansion is not retried live, but the checkpoint
	// re-opens it: a resume without the fault finishes the search.
	want := Run(mpConfig(), Options{Workers: 1})
	path := filepath.Join(t.TempDir(), "panic.ckpt")
	var calls atomic.Int32
	res := Run(mpConfig(), Options{
		Workers: 1,
		Hooks: hookFunc(func(fingerprint.FP, int) {
			if calls.Add(1) == 3 {
				panic("injected")
			}
		}),
		CheckpointPath: path,
	})
	if len(res.Panics) != 1 || res.Verdict != VerdictBounded {
		t.Fatalf("degraded run: %d panics, verdict %v", len(res.Panics), res.Verdict)
	}
	got, err := Resume(path, core.Model, Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Verdict != VerdictProved || got.Explored != want.Explored ||
		got.Terminated != want.Terminated || got.Depth != want.Depth {
		t.Fatalf("post-fix resume did not reach the clean fixpoint: %+v vs %+v", got, want)
	}
}

// TestResumePanickingProperty: a property that panics un-admits the
// configuration it was checking, and the panic is recorded against the
// parent, which the checkpoint re-opens. The degraded run's checkpoint
// therefore resumes: each parent is re-expanded, its configuration is
// re-admitted and checked again, and the search reaches the
// uninterrupted run's fixpoint. With several workers a configuration
// may be rediscovered, and its entry relaxed, between admission and the
// panic; that entry stays admitted and Resume refuses the checkpoint
// rather than lose the relaxation, so the parallel case accepts either
// outcome but never a different fixpoint.
func TestResumePanickingProperty(t *testing.T) {
	want := Run(mpConfig(), Options{Workers: 1})
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "panic.ckpt")
			var calls atomic.Int32
			panicAt := func(n int32) bool { return n == 4 }
			if workers > 1 {
				panicAt = func(n int32) bool { return n%7 == 0 }
			}
			res := Run(mpConfig(), Options{
				Workers:        workers,
				CheckpointPath: path,
				Property: func(model.Config) bool {
					if panicAt(calls.Add(1)) {
						panic("injected")
					}
					return true
				},
			})
			if len(res.Panics) == 0 || res.Verdict != VerdictBounded || res.CheckpointErr != nil {
				t.Fatalf("degraded run: %d panics, verdict %v, checkpoint error %v",
					len(res.Panics), res.Verdict, res.CheckpointErr)
			}
			if workers == 1 && len(res.Panics) != 1 {
				t.Fatalf("serial degraded run: %d panics, want 1", len(res.Panics))
			}
			got, err := Resume(path, core.Model, Options{Workers: workers, Property: func(model.Config) bool { return true }})
			if err != nil {
				if workers > 1 && strings.Contains(err.Error(), "is not on the frontier") {
					t.Logf("a relaxed entry kept the checkpoint from resuming: %v", err)
					return
				}
				t.Fatalf("resume of the degraded run: %v", err)
			}
			if got.Verdict != VerdictProved || got.Explored != want.Explored || got.Terminated != want.Terminated {
				t.Fatalf("resume: %v, %d explored, %d terminated; want PROVED, %d, %d",
					got.Verdict, got.Explored, got.Terminated, want.Explored, want.Terminated)
			}
		})
	}
}

// TestResumeRejectsUnqueuedWork: a checkpoint with an unexpanded entry
// that no frontier item holds would resume to PROVED over the work
// below it, so Resume refuses it. The checkpoint is a budget-cut one
// with a frontier item removed by hand.
func TestResumeRejectsUnqueuedWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hole.ckpt")
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: path})
	if res.Stop != StopMaxConfigs || res.CheckpointErr != nil {
		t.Fatalf("budget-cut run: stop %v, checkpoint error %v", res.Stop, res.CheckpointErr)
	}
	ck, err := loadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Frontier) < 2 {
		t.Fatalf("frontier of %d items; the test needs two", len(ck.Frontier))
	}
	ck.Frontier = ck.Frontier[1:]
	if err := writeCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(path, core.Model, Options{Workers: 1})
	if err == nil {
		t.Fatalf("resume over unqueued work succeeded: %v after %d states", got.Verdict, got.Explored)
	}
	if !strings.Contains(err.Error(), "is not on the frontier") {
		t.Fatalf("resume refused for another reason: %v", err)
	}
}

func TestResumeErrors(t *testing.T) {
	if _, err := Resume(filepath.Join(t.TempDir(), "missing.ckpt"), core.Model, Options{}); err == nil {
		t.Fatal("resume of a missing file succeeded")
	}

	// A checkpoint written by one backend must not restore under
	// another.
	path := filepath.Join(t.TempDir(), "cross.ckpt")
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: path})
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint: %v", res.CheckpointErr)
	}
	if _, err := Resume(path, sc.Model, Options{Workers: 1}); err == nil {
		t.Fatal("RAR checkpoint resumed under the SC backend")
	}

	if _, err := Resume(path, otherModel{core.Model}, Options{Workers: 1}); err == nil {
		t.Fatal("checkpoint resumed under a model outside the backends")
	}

	if err := CheckpointInterval("", time.Second); err == nil {
		t.Fatal("interval without a path validated")
	}
	if err := CheckpointInterval("x", time.Second); err != nil {
		t.Fatalf("valid interval rejected: %v", err)
	}
}

// TestResumeLargerBudget: a MaxConfigs-cut search resumed with a
// larger budget loses nothing — it reaches the full fixpoint.
func TestResumeLargerBudget(t *testing.T) {
	want := Run(mpConfig(), Options{Workers: 1})
	path := filepath.Join(t.TempDir(), "budget.ckpt")
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5, CheckpointPath: path})
	if res.Stop != StopMaxConfigs {
		t.Fatalf("Stop = %v", res.Stop)
	}
	got, err := Resume(path, core.Model, Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Verdict != VerdictProved || got.Explored != want.Explored ||
		got.Terminated != want.Terminated || got.Depth != want.Depth {
		t.Fatalf("budget-cut resume did not reach the full fixpoint: %+v vs %+v", got, want)
	}
	// The MaxConfigs cut marked Truncated; the flag is sticky across
	// the resume (the cut really happened), so only the state counts
	// are compared above.
}

// otherModel renames a backend, standing in for a model the engine
// cannot dispatch on.
type otherModel struct{ model.Model }

func (otherModel) Name() string { return "other" }

// TestCheckCollisionsCheckpointResume: the collision audit sits beside
// the seen-set, so an audited search checkpoints like any other, and
// resuming it (audited again) reaches the uninterrupted fixpoint with
// no collisions, under both backends.
func TestCheckCollisionsCheckpointResume(t *testing.T) {
	p, vars := petersonProg()
	for _, m := range []model.Model{core.Model, sc.Model} {
		t.Run(m.Name(), func(t *testing.T) {
			base := Options{MaxEvents: 9, Workers: 1, Property: mutualExclusion, CheckCollisions: true}
			want := Run(m.New(p, vars), base)
			if want.FingerprintCollisions != 0 {
				t.Fatalf("uninterrupted run: %d collisions", want.FingerprintCollisions)
			}
			path := filepath.Join(t.TempDir(), "audit.ckpt")
			cut := base
			cut.MaxConfigs = want.Explored / 3
			cut.CheckpointPath = path
			res := Run(m.New(p, vars), cut)
			if res.Stop != StopMaxConfigs || res.CheckpointErr != nil {
				t.Fatalf("cut run: stop=%v checkpoint err=%v", res.Stop, res.CheckpointErr)
			}
			if res.FingerprintCollisions != 0 {
				t.Fatalf("cut run: %d collisions", res.FingerprintCollisions)
			}
			got, err := Resume(path, m, base)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got.Explored != want.Explored || got.Verdict != want.Verdict || got.FingerprintCollisions != 0 {
				t.Fatalf("resumed audit: explored=%d verdict=%v collisions=%d, want explored=%d verdict=%v collisions=0",
					got.Explored, got.Verdict, got.FingerprintCollisions, want.Explored, want.Verdict)
			}
		})
	}
}

// TestResumeCommittedCheckpoint resumes checkpoints committed under
// testdata/, each to the fixpoint of its uncut run, serially and with
// two workers. The format is unchanged since they were written
// (checkpointVersion 2), so both must resume:
//   - serial Peterson at MaxEvents=10 with the mutual-exclusion
//     property, cut by MaxConfigs=200, written at commit 7aa8f83 while
//     the seen-set was still a map of heap entries;
//   - serial mp cut by MaxConfigs=5, written at commit 0128a7b with a
//     non-empty Extra caller blob, a field the format has since
//     dropped and the decoder must skip.
func TestResumeCommittedCheckpoint(t *testing.T) {
	p, vars := petersonProg()
	mp := Run(mpConfig(), Options{Workers: 1})
	mp.Truncated = true // the MaxConfigs cut marked it, and the flag is sticky across a resume
	for _, tc := range []struct {
		path string
		want Result
		prop func(model.Config) bool
	}{
		{"testdata/peterson-b10-cut-7aa8f83.gob",
			Run(core.NewConfig(p, vars), Options{Workers: 1, MaxEvents: 10, Property: mutualExclusion}), mutualExclusion},
		{"testdata/mp-cut-extra-0128a7b.gob", mp, nil},
	} {
		want := tc.want
		if want.Verdict != VerdictProved {
			t.Fatalf("%s: uncut run: %v", tc.path, want.Verdict)
		}
		for _, workers := range []int{1, 2} {
			got, err := Resume(tc.path, core.Model, Options{Workers: workers, Property: tc.prop})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.path, workers, err)
			}
			if got.Verdict != want.Verdict || got.Explored != want.Explored || got.Terminated != want.Terminated ||
				got.Depth != want.Depth || got.Truncated != want.Truncated || got.Frontier != 0 {
				t.Fatalf("%s workers=%d: resumed %v explored=%d term=%d depth=%d trunc=%v frontier=%d, want %v %d/%d/%d/%v/0",
					tc.path, workers, got.Verdict, got.Explored, got.Terminated, got.Depth, got.Truncated, got.Frontier,
					want.Verdict, want.Explored, want.Terminated, want.Depth, want.Truncated)
			}
		}
	}
}
