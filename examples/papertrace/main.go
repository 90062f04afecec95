// Papertrace reproduces Figure 2 of the paper ("Active garbage
// collection"): it evaluates the introduction's query over the stream
//
//	<bib><book><title/><author/></book>...</bib>
//
// with the base technique (no Section 6 optimizations, so role numbering
// and buffer contents parallel the paper's figure) and prints what was
// read, the buffer contents with role annotations, and the output after
// every step.
//
// Compare with the paper: after <book> is read the node carries three
// roles (binding of $x, the dos role, binding of $b — the paper's
// book{r3,r5,r6}); after the for$x signOff batch the author is purged and
// only book{r6}/title{r7} remain for the title loop.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gcx"
)

const query = `
<r> {
  for $bib in /bib return
  ((for $x in $bib/* return
      if (not(exists($x/price))) then $x else ()),
   for $b in $bib/book return $b/title)
} </r>`

const stream = `<bib><book><title/><author/></book><book><title/><price>7</price></book></bib>`

func main() {
	eng, err := gcx.Compile(query, gcx.WithoutOptimizations())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== static analysis (compare Figure 1 and the rewritten query) ===")
	fmt.Println(eng.Explain())

	fmt.Println("=== evaluation trace (compare Figure 2) ===")
	var out strings.Builder
	trace, err := eng.Trace(context.Background(), strings.NewReader(stream), &out, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range trace.Steps {
		fmt.Printf("step %-3d %s\n", i+1, s.Event)
		if s.Buffer == "" {
			fmt.Println("         (buffer empty)")
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(s.Buffer, "\n"), "\n") {
			fmt.Println("         | " + line)
		}
	}

	fmt.Println()
	fmt.Println("output:", out.String())
	fmt.Printf("peak buffer: %d nodes; %d nodes purged by active GC\n",
		trace.Stats.PeakBufferNodes, trace.Stats.PurgedTotal)
}
