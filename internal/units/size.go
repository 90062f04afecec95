// Package units parses and renders the byte sizes the commands take as
// flags (gcxd -max-body, xmarkgen -size, gcxbench -sizes). It imports
// nothing from this module, so a command that needs a size flag links
// nothing else for it.
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSize parses human-readable byte sizes like "10MB", "512KB", "2GB",
// or plain byte counts. Units are binary (1MB = 1<<20). Negative and
// non-finite values, and anything that does not fit an int64, are
// errors: a size flag guards a limit, and an out-of-range float→int64
// conversion would turn it into a negative number the callers read as
// "no limit".
func ParseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(u), 64)
	b := v * float64(mult)
	// Written as the accepted range so that NaN, which fails every
	// comparison, is rejected with the rest.
	if err != nil || !(v >= 0 && b < 1<<63) {
		return 0, fmt.Errorf("units: bad size %q", s)
	}
	return int64(b), nil
}

// FormatSize renders a byte count the way ParseSize reads it.
func FormatSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
