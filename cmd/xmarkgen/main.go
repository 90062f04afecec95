// Command xmarkgen generates synthetic XMark-style auction documents (the
// benchmark data of the paper's Section 7; see internal/xmark for the
// substitution notes).
//
// Usage:
//
//	xmarkgen -size 10MB [-seed 1] [-o doc.xml]
//	xmarkgen -factor 0.1 [-seed 1] [-o doc.xml]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gcx/internal/units"
	"gcx/internal/xmark"
)

func main() {
	var (
		size   = flag.String("size", "", "approximate target size, e.g. 10MB, 512KB, 2GB")
		factor = flag.Float64("factor", 0, "XMark scale factor (1.0 ≈ 82MB); overrides -size")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	f := *factor
	if f == 0 {
		if *size == "" {
			fmt.Fprintln(os.Stderr, "xmarkgen: one of -size or -factor is required")
			os.Exit(2)
		}
		bytes, err := units.ParseSize(*size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmarkgen:", err)
			os.Exit(2)
		}
		f = xmark.FactorForSize(bytes)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmarkgen:", err)
			os.Exit(1)
		}
		defer file.Close()
		w = file
	}

	n, err := xmark.Generate(w, xmark.Config{Factor: f, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "xmarkgen: wrote %d bytes (factor %.4f, seed %d)\n", n, f, *seed)
}
