package engine

import (
	"gcx/internal/obs"
	"gcx/internal/proj"
)

// scheduler drives N pull-based evaluators over ONE shared stream
// pre-projector. Each evaluator runs in its own goroutine, but execution
// is strictly sequential: a baton (one channel handoff per suspension
// point) guarantees that at any moment exactly one goroutine — either the
// scheduler or a single evaluator — is running, so the shared buffer needs
// no locking and every run is deterministic.
//
// The round structure is the paper's Figure 11 chain generalized to a set
// of queries: the scheduler resumes each live evaluator in turn; an
// evaluator runs until it either completes or needs stream data that is
// not buffered yet (it then parks in its feeder's Step). Once every live
// evaluator is parked, the scheduler advances the shared projector by up
// to batch tokens — filling the shared buffer for everyone at once — and
// starts the next round. A query's signOffs therefore execute as early as
// its own data dependencies allow, within batch tokens of the solo
// schedule, and the input is tokenized and projected exactly once.
type scheduler struct {
	proj  *proj.Projector
	tasks []*task
	batch int

	// yield is the baton back to the scheduler: a running task sends on it
	// exactly once per suspension (want-token or done) and the scheduler is
	// the only receiver.
	yield chan struct{}

	eof       bool
	streamErr error
}

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
	// exec runs the member's evaluator; wired once at runState
	// construction (the evaluator and its rewritten query are persistent).
	exec func() error

	state    taskState
	err      error
	panicked any
	hasPanic bool

	// signOffs counts this query's executed signOff statements (fed by the
	// evaluator's OnSignOff hook).
	signOffs int64
	// tokensAtDone is the shared stream position when this query's
	// evaluator completed.
	tokensAtDone int64
	// doneAt is the obs.Now timestamp when this query's evaluator
	// completed (its last result byte was available).
	doneAt int64
}

// defaultBatch is the number of tokens fed per scheduling round once every
// live evaluator is parked. Larger batches amortize the per-suspension
// baton handoffs (two channel operations per parked evaluator per round)
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
	s.tasks = make([]*task, n)
	for i := range s.tasks {
		s.tasks[i] = &task{s: s, id: i, resume: make(chan struct{})}
	}
	return s
}

// reset prepares the scheduler for another pooled run. The projector must
// have been reset first.
//
//gcxlint:keep proj wired at construction; the owner resets the projector separately
//gcxlint:keep tasks the task handles are persistent; runState.reset clears their per-run fields (task.reset)
//gcxlint:keep batch configuration fixed at construction
//gcxlint:keep yield the baton channel is the scheduler's identity and is empty whenever the scheduler is parked
func (s *scheduler) reset() {
	s.eof = false
	s.streamErr = nil
}

// reset clears the task's per-run fields.
//
//gcxlint:keep s wired at construction
//gcxlint:keep id wired at construction
//gcxlint:keep resume the baton channel is the task's identity and is empty between runs
//gcxlint:keep exec wired at construction (the evaluator and its rewritten query are persistent)
func (t *task) reset() {
	t.state = taskIdle
	t.err = nil
	t.panicked = nil
	t.hasPanic = false
	t.signOffs = 0
	t.tokensAtDone = 0
	t.doneAt = 0
}

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

// main is one evaluator goroutine: wait for the first baton, run the
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

// run executes all member queries over one pass of the shared stream and
// returns the first stream-level error (member evaluation errors are left
// on the tasks). It must be called with the projector freshly reset.
func (s *scheduler) run() error {
	live := len(s.tasks)
	want := make([]*task, 0, live)
	for _, t := range s.tasks {
		go t.main()
		want = append(want, t)
	}
	for live > 0 {
		// Advance phase: let every runnable member consume what the buffer
		// already holds (executing its signOffs as it goes). The baton
		// discipline — send resume, then block on yield — keeps exactly one
		// goroutine running.
		next := want[:0]
		for _, t := range want {
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
		// the shared projector by up to batch tokens; after EOF (or a
		// stream error) the members are resumed a final time and unwind on
		// their own (all buffered nodes are finished at a clean EOF).
		for fed := 0; fed < s.batch && !s.eof && s.streamErr == nil; fed++ {
			more, err := s.proj.Step()
			if err != nil {
				s.streamErr = err
				break
			}
			if !more {
				s.eof = true
			}
		}
	}
	for _, t := range s.tasks {
		if t.hasPanic {
			panic(t.panicked)
		}
	}
	return s.streamErr
}
