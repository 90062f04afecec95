package engine

import "testing"

// Equivalence under maximal node sharing: duplicated and heavily
// overlapping member queries collapse onto shared projection nodes (extra
// role lanes), and every member must still produce its solo output byte
// for byte with balanced role accounting.

var overlapQueries = []string{
	`<r>{ for $b in /bib/book return $b/title }</r>`,
	`<r>{ for $b in /bib/book return $b/title }</r>`, // identical duplicate
	`<r>{ for $p in /bib/book return $p/price }</r>`, // shared spine
	`<r>{ for $b in /bib/book return if (exists($b/price)) then $b/title else () }</r>`,
	`<r>{ for $b in /bib/book return $b/title }</r>`, // second duplicate
}

func TestWorkloadSharedNodesMatchSolo(t *testing.T) {
	for _, mode := range []Mode{ModeGCX, ModeStaticOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			var want []string
			for _, q := range overlapQueries {
				out, _ := soloRun(t, q, testDoc, mode)
				want = append(want, out)
			}
			got, _, qs := runWorkload(t, overlapQueries, testDoc, mode, 1)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("query %d output mismatch:\n got: %s\nwant: %s", i, got[i], want[i])
				}
			}
			for i, q := range qs {
				if q.Err != nil {
					t.Errorf("query %d error: %v", i, q.Err)
				}
				if mode == ModeGCX && q.RoleAssignments != q.RoleRemovals {
					t.Errorf("query %d roles unbalanced: %d assigned, %d removed", i, q.RoleAssignments, q.RoleRemovals)
				}
			}
		})
	}
}
