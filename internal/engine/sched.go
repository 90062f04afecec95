package engine

import (
	"sync/atomic"

	"gcx/internal/eval"
	"gcx/internal/obs"
	"gcx/internal/proj"
	"gcx/internal/xqast"
)

// scheduler drives N pull-based evaluators over ONE shared stream
// pre-projector. Each evaluator runs in its own goroutine, but execution
// is strictly sequential: a baton (one channel handoff per suspension
// point) guarantees that at any moment exactly one goroutine — either the
// scheduler or a single evaluator — is running, so the shared buffer needs
// no locking and every run is deterministic.
//
// The round structure is the paper's Figure 11 chain generalized to a set
// of queries: the scheduler visits each live evaluator in turn; an
// evaluator runs until it either completes or needs stream data that is
// not buffered yet (it then parks in its feeder's Step, having recorded
// the node it is blocked on). Once every live evaluator is parked, the
// scheduler advances the shared projector by up to batch tokens — filling
// the shared buffer for everyone at once — and starts the next round. A
// query's signOffs therefore execute as early as its own data dependencies
// allow, within batch tokens of the solo schedule, and the input is
// tokenized and projected exactly once.
//
// Figure 11's chain is demand-driven, and so is a round: a parked
// evaluator is resumed only if the batch touched what it waits on (see
// wakeable). One that is not resumed would have re-read the same node
// state, found its loop condition still false and parked again, so the
// members that do run, the order they run in, and everything they write
// or sign off are what resuming all of them would have produced.
type scheduler struct {
	proj  *proj.Projector
	tasks []task
	batch int

	// start is member as a func value built once: "go s.member()" would
	// allocate a wrapper closure per member per run.
	start func()
	// claimed counts the tasks this run's member goroutines have taken.
	claimed atomic.Int32

	// yield is the baton back to the scheduler: a running task sends on it
	// exactly once per suspension (want-token or done) and the scheduler is
	// the only receiver.
	yield chan struct{}
	// want is run's worklist of live members, kept here so a pooled run
	// does not allocate it.
	want []*task

	eof       bool
	streamErr error

	// resumes counts baton handoffs to members (two channel operations
	// each), skips the visits that needed none. Read by tests only: the
	// pass's work count the wall clock is too noisy to gate on.
	resumes, skips int64
}

// auditSkip, when set (tests only, through export_test.go), is called for
// every visit run decides to skip; it resumes the member anyway and checks
// that nothing moved.
var auditSkip func(s *scheduler, t *task)

type taskState uint8

const (
	taskIdle taskState = iota
	taskWant           // parked in feeder.Step, waiting for stream progress
	taskDone           // evaluator returned (err recorded)
)

// task is one member query's run handle. The struct is persistent across
// pooled runs; reset() clears the per-run fields. A one-member pass has a
// lone task and no scheduler: s and resume stay nil and exec runs inline.
type task struct {
	s      *scheduler
	id     int
	resume chan struct{}
	// ev is the member's evaluator and query its rewritten query; both
	// are persistent, wired once at runState construction.
	ev    *eval.Evaluator
	query *xqast.Query

	state    taskState
	err      error
	panicked any
	hasPanic bool

	// tokensAtDone is the shared stream position when this query's
	// evaluator completed.
	tokensAtDone int64
	// doneAt is the obs.Now timestamp when this query's evaluator
	// completed (its last result byte was available).
	doneAt int64
}

// defaultBatch is the number of tokens fed per scheduling round once every
// live evaluator is parked. Larger batches amortize the per-suspension
// baton handoffs (two channel operations per resumed evaluator per round)
// over more stream progress; the price is that a signOff — and the purge
// it triggers — may run up to batch tokens later than in a solo run, so
// the peak buffer can exceed the ideal by O(batch) nodes. 64 makes the
// scheduling overhead vanish against tokenization while keeping the
// buffer overshoot far below any real document's working set.
const defaultBatch = 64

func newScheduler(p *proj.Projector, n, batch int) *scheduler {
	if batch <= 0 {
		batch = defaultBatch
	}
	s := &scheduler{proj: p, batch: batch, yield: make(chan struct{})}
	s.tasks = make([]task, n)
	s.want = make([]*task, 0, n)
	for i := range s.tasks {
		s.tasks[i] = task{s: s, id: i, resume: make(chan struct{})}
	}
	s.start = s.member
	return s
}

// reset prepares the scheduler for another pooled run. The projector must
// have been reset first.
//
//gcxlint:keep proj wired at construction; the owner resets the projector separately
//gcxlint:keep tasks the task handles are persistent; runState.reset clears their per-run fields (task.reset)
//gcxlint:keep batch configuration fixed at construction
//gcxlint:keep yield the baton channel is the scheduler's identity and is empty whenever the scheduler is parked
//gcxlint:keep want run refills the worklist from tasks before reading it; it only ever holds the persistent task handles
//gcxlint:keep start wired at construction (member bound to this scheduler)
//gcxlint:keep claimed an atomic, zeroed by the Store below
func (s *scheduler) reset() {
	s.claimed.Store(0)
	s.eof = false
	s.streamErr = nil
	s.resumes = 0
	s.skips = 0
}

// reset clears the task's per-run fields.
//
//gcxlint:keep s wired at construction
//gcxlint:keep id wired at construction
//gcxlint:keep resume the baton channel is the task's identity and is empty between runs
//gcxlint:keep ev wired at construction; runState.reset resets the evaluator itself
//gcxlint:keep query wired at construction (the member's rewritten query is persistent)
func (t *task) reset() {
	t.state = taskIdle
	t.err = nil
	t.panicked = nil
	t.hasPanic = false
	t.tokensAtDone = 0
	t.doneAt = 0
}

// exec runs the member's evaluator over its query.
func (t *task) exec() error { return t.ev.Run(t.query) }

// finish stamps where and when the member's evaluator completed.
func (t *task) finish(p *proj.Projector) {
	t.tokensAtDone = p.TokensRead()
	t.doneAt = obs.Now()
}

// Step implements eval.Feeder for one member query: instead of stepping
// the projector directly (the solo wiring), the evaluator parks here and
// the scheduler advances the shared stream once every live evaluator is
// blocked on it.
func (t *task) Step() (bool, error) {
	s := t.s
	if s.streamErr != nil {
		return false, s.streamErr
	}
	if s.eof {
		return false, nil
	}
	t.state = taskWant
	s.yield <- struct{}{}
	<-t.resume
	if s.streamErr != nil {
		return false, s.streamErr
	}
	return !s.eof, nil
}

// member is one evaluator goroutine. The goroutines of a run are
// interchangeable: each takes the next task nobody has taken and runs it.
func (s *scheduler) member() { s.tasks[s.claimed.Add(1)-1].main() }

// main runs t on a member goroutine: wait for the first baton, run the
// member query, hand the baton back marked done. A panic in the evaluator
// is captured so the scheduler can unwind the remaining members and
// re-raise it on the caller's goroutine.
func (t *task) main() {
	<-t.resume
	defer func() {
		if r := recover(); r != nil {
			t.panicked = r
			t.hasPanic = true
		}
		t.state = taskDone
		t.finish(t.s.proj)
		t.s.yield <- struct{}{}
	}()
	t.err = t.exec()
}

// wakeable reports whether handing t the baton can change anything. A
// member that has not started has everything to do. A parked one is left
// alone while the node it recorded is untouched — except at end of input
// or on a stream error, which reach it through Step's result and make it
// unwind, and in the cases the evaluator itself knows about (CanProceed:
// a wait no single node decides, a first result byte still to be
// flushed). Unnecessary wakes are only slow; the rule errs that
// way wherever it is not sure.
//
// The evaluator fields this reads were written on t's goroutine before its
// yield send, which the scheduler received before getting here.
//
//gcxlint:noalloc
func (s *scheduler) wakeable(t *task) bool {
	return t.state != taskWant || s.eof || s.streamErr != nil || t.ev.CanProceed()
}

// run executes all member queries over one pass of the shared stream and
// returns the first stream-level error (member evaluation errors are left
// on the tasks). It must be called with the projector freshly reset.
func (s *scheduler) run() error {
	want := s.want[:0]
	for i := range s.tasks {
		go s.start()
		want = append(want, &s.tasks[i])
	}
	live := len(want)
	for live > 0 {
		// Advance phase: let every member whose wait was touched consume
		// what the buffer already holds (executing its signOffs as it
		// goes). The baton discipline — send resume, then block on yield —
		// keeps exactly one goroutine running.
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
			t.resume <- struct{}{}
			<-s.yield
			if t.state == taskDone {
				live--
				continue
			}
			next = append(next, t)
		}
		want = next
		if live == 0 {
			break
		}
		// Feed phase: every live member is parked on the stream. Advance
		// the shared projector by batch tokens, counted as tokens however
		// many Steps they make; after EOF (or a stream error) the members
		// are resumed a final time and unwind on their own (all buffered
		// nodes are finished at a clean EOF).
		if !s.eof && s.streamErr == nil {
			_, more, err := s.proj.StepN(int64(s.batch))
			s.streamErr, s.eof = err, !more && err == nil
		}
	}
	for i := range s.tasks {
		if t := &s.tasks[i]; t.hasPanic {
			panic(t.panicked)
		}
	}
	return s.streamErr
}
