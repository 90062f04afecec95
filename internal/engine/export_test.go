package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// The randomized query/document generator of quick_test.go, exported for
// onemember_test.go: that suite compares the PUBLIC gcx API's one-member
// forms and so lives in package engine_test (package gcx imports this one).

func RandQuery(r *rand.Rand) string { return (&queryGen{r: r}).query() }

func RandDoc(r *rand.Rand) string { return randDoc(r) }

func CheckProperty(t *testing.T, prop func(seed int64) bool, n int) { checkProperty(t, prop, n) }

// CompilePass compiles each query solo and assembles the pass with the
// given scheduler batch (0: defaultBatch, as in production). (Production
// passes are assembled from a compile cache's members: gcx.Registry.)
func CompilePass(srcs []string, cfg Config, batch int) (*Pass, error) {
	members := make([]*Compiled, len(srcs))
	for i, src := range srcs {
		m, err := Compile(src, cfg)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		members[i] = m
	}
	p, err := NewPass(members)
	if err != nil {
		return nil, err
	}
	p.batch = batch
	return p, nil
}

// runSolo runs a one-member pass's state, reset by the caller, and
// returns its member's error.
func (rs *runState) runSolo() error {
	rs.scheduler.run()
	return rs.tasks[0].err
}

// auditSkippedWakes makes every scheduler resume the members it decides
// to skip, until the test ends, and panics unless such a resume changed
// nothing: the member must park again on the same wait at the same stamp,
// in the same blocking episode, with no byte written, nothing signed off
// and the shared buffer's accounting where it was. (A panic, not t.Error:
// a member that got further is no longer where the scheduler's bookkeeping
// has it, so the pass cannot continue.) The returned counter is the number
// of skipped visits audited, atomic: passes the suites run from several
// goroutines at once (TestPassWriterPanic) audit concurrently.
func auditSkippedWakes(t *testing.T) *atomic.Int64 {
	audited := new(atomic.Int64)
	auditSkip = func(s *scheduler, m *task) {
		before := m.ev.Progress()
		done := s.resume(m)
		audited.Add(1)
		if after := m.ev.Progress(); done || after != before {
			i := 0
			for &s.tasks[i] != m {
				i++
			}
			panic(fmt.Sprintf("wake rule: member %d was skipped but resuming it made progress (done %v)\nbefore %+v\nafter  %+v",
				i, done, before, after))
		}
	}
	t.Cleanup(func() { auditSkip = nil })
	return audited
}
