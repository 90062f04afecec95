package engine

import (
	"gcx/internal/eval"
	"gcx/internal/obs"
	"gcx/internal/proj"
)

// scheduler drives the evaluators of every pass, whatever its member
// count, over ONE shared stream pre-projector on the caller's goroutine.
// An evaluator parks by returning from its step function
// (eval.Evaluator.Resume), so resuming it is a plain call and the shared
// buffer needs no locking.
//
// The round structure is the paper's Figure 11 chain generalized to a set
// of queries: each live evaluator runs in turn until it completes or
// parks on stream data that is not buffered yet; then the scheduler feeds
// the shared projector, filling the shared buffer for everyone at once. A
// query's signOffs therefore execute as early as its own data
// dependencies allow, within one feed of the solo schedule, and the input
// is tokenized and projected exactly once.
//
// Figure 11's chain is demand-driven, and so is a round: a parked
// evaluator is resumed only if the feed touched what it waits on (see
// wakeable). One that is not resumed would have re-read the same node
// state, found its wait still unmet and parked again, so the members that
// do run, the order they run in, and everything they write or sign off
// are what resuming all of them would have produced.
type scheduler struct {
	proj  *proj.Projector
	tasks []task
	batch int
	// want is run's worklist of live members, kept here so a pooled run
	// does not allocate it.
	want []*task

	eof       bool
	streamErr error

	// resumes counts the visits that called a member's step function,
	// skips the visits that needed none. Read by tests only: the pass's
	// work count the wall clock is too noisy to gate on.
	resumes, skips int64
}

// auditSkip, when set (tests only, through export_test.go), is called for
// every visit run decides to skip; it resumes the member anyway and checks
// that nothing moved.
var auditSkip func(s *scheduler, t *task)

// task is one member query's run handle: its evaluator, wired once at
// runState construction, and how its run went.
type task struct {
	ev  *eval.Evaluator
	err error
	// tokensAtDone is the shared stream position, and doneAt the obs.Now
	// timestamp, when the member's evaluator completed (its last result
	// byte was available).
	tokensAtDone, doneAt int64
}

// defaultBatch is the number of tokens fed per round of a pass with more
// than one member. Larger batches amortize the rounds — a wakeable check
// per parked member, a resume per woken one — over more stream progress;
// the price is that a signOff, and its purge, may run up to batch tokens
// later than solo, so the peak buffer can exceed the ideal by O(batch)
// nodes. 64 makes the scheduling overhead vanish against tokenization
// while keeping the overshoot far below any real document's working set.
const defaultBatch = 64

// reset prepares the scheduler and its tasks for another pooled run. The
// projector must have been reset first.
//
//gcxlint:keep proj wired at construction; the owner resets the projector separately
//gcxlint:keep tasks each keeps only its evaluator, which runState.reset resets
//gcxlint:keep batch configuration fixed at construction
//gcxlint:keep want run refills the worklist from tasks before reading it; it only ever holds the persistent task handles
func (s *scheduler) reset() {
	for i := range s.tasks {
		t := &s.tasks[i]
		*t = task{ev: t.ev}
	}
	s.eof, s.streamErr = false, nil
	s.resumes, s.skips = 0, 0
}

// resume runs t's evaluator, started by runState.reset, until it
// completes or parks, and reports whether it completed: then it records
// how, where and when. A stream error reaches the evaluator here, which
// unwinds with it.
func (s *scheduler) resume(t *task) bool {
	done, err := t.ev.Resume(s.streamErr)
	if done {
		t.err, t.tokensAtDone, t.doneAt = err, s.proj.TokensRead(), obs.Now()
	}
	return done
}

// wakeable reports whether resuming t can change anything. A parked
// member is left alone while the node it recorded is untouched — except
// at end of input or on a stream error, which reach it through Resume and
// make it finish or unwind, and in the cases the evaluator itself knows
// about (CanProceed: a member that has not run yet, whose wait is none, a
// wait no single node decides, a first result byte still to be flushed).
// Unnecessary wakes are only slow; the rule errs that way wherever it is
// not sure.
//
//gcxlint:noalloc
func (s *scheduler) wakeable(t *task) bool {
	return s.eof || s.streamErr != nil || t.ev.CanProceed()
}

// run executes all member queries over one pass of the shared stream and
// returns the first stream-level error (member evaluation errors are left
// on the tasks). It must be called with the projector freshly reset. A
// panic (a member's output writer, say) reaches the caller as it is; the
// members after it in the round do not run on.
func (s *scheduler) run() error {
	want := s.want[:0]
	for i := range s.tasks {
		want = append(want, &s.tasks[i])
	}
	for len(want) > 0 {
		// Advance phase: let every member whose wait was touched consume
		// what the buffer already holds (executing its signOffs as it
		// goes).
		next := want[:0]
		for _, t := range want {
			if !s.wakeable(t) {
				s.skips++
				if auditSkip != nil {
					auditSkip(s, t)
				}
				next = append(next, t)
				continue
			}
			s.resumes++
			if !s.resume(t) {
				next = append(next, t)
			}
		}
		want = next
		// Feed phase: every live member is parked on the stream; a lone
		// member gets one Step (a token or a dead subtree), several get
		// batch tokens. After EOF (or a stream error) the members are
		// resumed a final time and finish or unwind on their own (all
		// buffered nodes are finished at a clean EOF).
		if len(want) > 0 && !s.eof && s.streamErr == nil {
			var more bool
			var err error
			if len(s.tasks) == 1 {
				more, err = s.proj.Step()
			} else {
				_, more, err = s.proj.StepN(int64(s.batch))
			}
			s.streamErr, s.eof = err, !more && err == nil
		}
	}
	return s.streamErr
}
