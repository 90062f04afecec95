package engine

import "math/rand"

// The randomized query/document generator of quick_test.go, exported for
// onemember_test.go: that suite compares the PUBLIC gcx API's one-member
// forms and so lives in package engine_test (package gcx imports this one).

func RandQuery(r *rand.Rand) string { return (&queryGen{r: r}).query() }

func RandDoc(r *rand.Rand) string { return randDoc(r) }
