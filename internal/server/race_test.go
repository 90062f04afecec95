//go:build race

package server

// raceEnabled reports whether the race detector is active; the
// allocation guard skips under it (instrumentation allocates).
const raceEnabled = true
