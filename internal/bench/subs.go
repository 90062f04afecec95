package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"gcx"
	"gcx/internal/engine"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// SubsConfig parameterizes the subscription-scale benchmark (cmd/gcxbench
// -subs-json): N standing queries with heavy textual overlap are
// registered in a gcx.Registry and one document is pushed through the
// fleet, against a comparator that is what "one automaton per
// subscription" literally means: the same N queries run as N solo passes
// over the document, the model a naive registry would be. The gap
// between the two columns is the tentpole claim of the subscription
// registry: matching cost scales with the number of distinct path
// STRUCTURES, not the subscription count.
type SubsConfig struct {
	// Counts is the subscription-count sweep (default 10, 100, 1000, 10000).
	Counts []int
	// DocBytes is the target size of the generated XMark document the
	// fleet evaluates (kept small: the solo comparator's cost grows
	// with Counts × DocBytes).
	DocBytes int64
	// Seed for document generation.
	Seed uint64
	// Iterations is the number of measured runs per count (plus one
	// warm-up that also builds the registry snapshot).
	Iterations int
	// Progress, if non-nil, receives one line per completed count, with
	// the count's wall time (a runaway 10k point shows in the log).
	Progress io.Writer
}

// SubsResult is one subscription count's measurements. Field names are
// scrape-stable for CI trend tooling.
type SubsResult struct {
	Subs          int `json:"subs"`
	DistinctTexts int `json:"distinct_texts"`
	// Groups is the registry's distinct-query-text group count — the
	// number of evaluations one shared pass performs (== DistinctTexts;
	// recorded from the registry as a self-check).
	Groups int `json:"groups"`
	// SharedDocsPerSec is the registry path: one merged automaton with
	// node sharing, one evaluation per distinct text, fanout to all subs.
	SharedDocsPerSec float64 `json:"shared_docs_per_sec"`
	// DisjointDocsPerSec is the comparator: N solo passes per document —
	// no dedup, no shared scan, no node sharing.
	DisjointDocsPerSec float64 `json:"disjoint_docs_per_sec"`
	// Speedup is SharedDocsPerSec / DisjointDocsPerSec.
	Speedup float64 `json:"speedup"`
	// SubscribeUsPerSub is the mean incremental Subscribe cost (compile +
	// registration) at this scale.
	SubscribeUsPerSub float64 `json:"subscribe_us_per_sub"`
	// SharedPeakBufferBytes is the union buffer's high watermark of one
	// shared run.
	SharedPeakBufferBytes int64 `json:"shared_peak_buffer_bytes"`
	// OutputBytes is the total fanout volume of one shared run (every
	// subscriber's copy counted).
	OutputBytes int64 `json:"output_bytes"`
}

// SubsReport is the BENCH_subs.json document.
type SubsReport struct {
	DocBytes   int64        `json:"doc_bytes"`
	Iterations int          `json:"iterations"`
	Templates  int          `json:"templates"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []SubsResult `json:"results"`
	// SharedRetention is SharedDocsPerSec at the largest count divided by
	// SharedDocsPerSec at the smallest — the sublinearity witness. A
	// registry whose cost grew linearly with the subscription count would
	// show ~minCount/maxCount here; structure-bound matching holds it
	// orders of magnitude higher.
	SharedRetention float64 `json:"shared_retention"`
}

// maxDistinctTexts bounds the distinct query texts per count: past this
// the fleet is pure fanout (more subscribers of existing texts), which is
// exactly the regime a 10k-subscription service lives in.
const maxDistinctTexts = 64

// RunSubs executes the subscription-count sweep.
func RunSubs(cfg SubsConfig) (*SubsReport, error) {
	if len(cfg.Counts) == 0 {
		cfg.Counts = []int{10, 100, 1000, 10000}
	}
	if cfg.DocBytes <= 0 {
		cfg.DocBytes = 128 << 10
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}

	var buf bytes.Buffer
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(cfg.DocBytes), Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	doc := buf.Bytes()

	rep := &SubsReport{
		DocBytes:   int64(len(doc)),
		Iterations: cfg.Iterations,
		Templates:  len(queries.All()),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range cfg.Counts {
		t0 := time.Now()
		r, err := runSubsCount(n, cfg.Iterations, doc)
		if err != nil {
			return nil, fmt.Errorf("subs=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, r)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%s   wall %.1fs\n", FormatSubsResult(r), time.Since(t0).Seconds())
		}
	}
	first, last := rep.Results[0], rep.Results[len(rep.Results)-1]
	if first.SharedDocsPerSec > 0 {
		rep.SharedRetention = last.SharedDocsPerSec / first.SharedDocsPerSec
	}
	return rep, nil
}

func runSubsCount(n, iterations int, doc []byte) (SubsResult, error) {
	distinct := min(n, maxDistinctTexts)
	texts := queries.Variants(distinct)
	res := SubsResult{Subs: n, DistinctTexts: distinct}

	// Shared path: the registry. Subscribe cost is measured over the full
	// fleet build — at 10k subs most Subscribes are fanout-only joins of
	// an existing group, which is the incremental cost that matters.
	reg, err := gcx.NewRegistry()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := reg.Subscribe(fmt.Sprintf("sub-%d", i), texts[i%distinct]); err != nil {
			return res, err
		}
	}
	res.SubscribeUsPerSub = float64(time.Since(t0).Microseconds()) / float64(n)
	res.Groups = reg.Groups()

	// Every subscriber gets a real (discarding) writer so the fanout loop
	// runs and per-subscription byte accounting stays live — the same
	// delivery work a serving tier performs, and the same writer the
	// solo comparator gets.
	sink := gcx.SinkFunc(func(*gcx.Subscription) io.Writer { return io.Discard })

	// Warm-up builds the merged snapshot and fills the run-state pool.
	st, err := reg.Run(bytes.NewReader(doc), sink)
	if err != nil {
		return res, err
	}
	res.SharedPeakBufferBytes = st.Aggregate.PeakBufferBytes
	res.OutputBytes = subsOutputBytes(reg)
	start := time.Now()
	for i := 0; i < iterations; i++ {
		if _, err := reg.Run(bytes.NewReader(doc), sink); err != nil {
			return res, err
		}
	}
	res.SharedDocsPerSec = float64(iterations) / time.Since(start).Seconds()

	// Comparator: the same n subscriptions as n solo passes per document.
	// Subscribers of one text share its compiled artifact (and so its
	// run-state pool) but nothing else: every pass scans, projects and
	// evaluates the document on its own.
	compiled := make([]*engine.Compiled, distinct)
	for i, text := range texts {
		if compiled[i], err = engine.Compile(text, engine.Config{Mode: engine.ModeGCX}); err != nil {
			return res, err
		}
	}
	soloPasses := func() error {
		for i := 0; i < n; i++ {
			if _, err := compiled[i%distinct].Run(bytes.NewReader(doc), io.Discard); err != nil {
				return err
			}
		}
		return nil
	}
	if err := soloPasses(); err != nil { // warm-up fills the run-state pools
		return res, err
	}
	start = time.Now()
	for i := 0; i < iterations; i++ {
		if err := soloPasses(); err != nil {
			return res, err
		}
	}
	res.DisjointDocsPerSec = float64(iterations) / time.Since(start).Seconds()
	if res.DisjointDocsPerSec > 0 {
		res.Speedup = res.SharedDocsPerSec / res.DisjointDocsPerSec
	}
	return res, nil
}

// subsOutputBytes sums the fleet's delivered bytes after one run.
func subsOutputBytes(reg *gcx.Registry) int64 {
	var total int64
	for _, id := range reg.IDs() {
		if sub, ok := reg.Subscription(id); ok {
			total += sub.Stats().OutputBytes
		}
	}
	return total
}

// FormatSubsResult renders one count's row as a single line.
func FormatSubsResult(r SubsResult) string {
	return fmt.Sprintf("subs %6d (%2d texts)   shared %8.1f docs/s   solo passes %8.2f docs/s   speedup %6.1fx   subscribe %6.1fus/sub   peak %s",
		r.Subs, r.DistinctTexts, r.SharedDocsPerSec, r.DisjointDocsPerSec, r.Speedup,
		r.SubscribeUsPerSub, humanBytes(r.SharedPeakBufferBytes))
}

// FormatSubsTable renders the full report for humans.
func FormatSubsTable(rep *SubsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Subscription scale: %s doc, %d templates, %d iterations\n",
		humanBytes(rep.DocBytes), rep.Templates, rep.Iterations)
	for _, r := range rep.Results {
		b.WriteString(FormatSubsResult(r) + "\n")
	}
	fmt.Fprintf(&b, "shared-path throughput retention %d -> %d subs: %.3f\n",
		rep.Results[0].Subs, rep.Results[len(rep.Results)-1].Subs, rep.SharedRetention)
	return b.String()
}
