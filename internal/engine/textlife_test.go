package engine

import (
	"testing"

	"gcx/internal/buffer"
)

// TestTextLifetime reruns the suites that compare bytes — the three
// strategies of Theorem 1, the refill windows {1, 7, 64} solo and shared,
// the collected-operand cases with their failed and symbol-flushed runs,
// and the shared-pass equivalences — with the buffer's text slab in its
// test mode: 256-byte chunks, so texts of one run land in many chunks and
// chunks are reclaimed all the time, and 0xFF written over every text the
// moment it is released and over every chunk at Reset. Node.Text is valid
// until its node is unlinked or the buffer is Reset; a holder that keeps
// one longer (a cached operand, a string value read before a purge, a
// pooled evaluator's scratch) reads 0xFF here and fails the comparison it
// would otherwise pass by luck.
func TestTextLifetime(t *testing.T) {
	defer buffer.SetTextDebug(256)()
	for _, s := range []struct {
		name string
		test func(*testing.T)
	}{
		{"Theorem1", TestTheorem1Equivalence},
		{"RefillWindows", TestEquivalenceAcrossRefillWindows},
		{"CollectedOperandReuse", TestCollectedOperandReuse},
		{"FailedJoinThenCleanRun", TestFailedJoinThenCleanRunOnPooledState},
		{"SymTabFlush", TestSymTabFlushReResolves},
		{"SharedNodes", TestWorkloadSharedNodesMatchSolo},
		{"WorkloadEquivalence", TestWorkloadEquivalence},
		{"WorkloadEquivalenceBatched", TestWorkloadEquivalenceBatched},
		{"PooledReruns", TestWorkloadPooledReruns},
	} {
		t.Run(s.name, s.test)
	}
}
