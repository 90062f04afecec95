package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the binary under test")

// bin is the gcx binary TestMain builds, as cmd/gcxd's e2e test builds
// gcxd: the goldens pin what a user of the command sees.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "gcx-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gcx")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// xmarkFile writes a 32 KB XMark document generated with seed into dir.
func xmarkFile(t *testing.T, dir string, seed uint64) string {
	t.Helper()
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(32 << 10), Seed: seed}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("doc%d.xml", seed))
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGcx runs the binary and returns its stdout and stderr; a non-zero exit
// fails the test.
func runGcx(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("gcx %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// timing matches what differs from one run to the next: wall-clock
// durations, the bulk pool's utilization and its in-flight high watermark.
var timing = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(time_to_first_result_nanos|eval_wall_nanos|busy_nanos|wall_nanos|peak_in_flight)":\d+`), `"$1":N`},
	{regexp.MustCompile(`(first result after|evaluation took): +\S+`), `$1: T`},
	{regexp.MustCompile(`\d+% pool utilization`), `N% pool utilization`},
}

func scrub(s string) string {
	for _, r := range timing {
		s = r.re.ReplaceAllString(s, r.with)
	}
	return s
}

// queryFlags is -q for each named catalog query, in order. The slice is
// clipped, so each append to it builds a separate argument list.
func queryFlags(names ...string) []string {
	var args []string
	for _, name := range names {
		args = append(args, "-q", queries.ByName(name).Text)
	}
	return slices.Clip(args)
}

// TestCLIGoldens pins stdout and stderr of a three-query run with both
// stats forms, of -explain for the same queries, and of a bulk run over
// two documents, timings scrubbed. Regenerate with -update.
func TestCLIGoldens(t *testing.T) {
	dir := t.TempDir()
	doc1, doc2 := xmarkFile(t, dir, 1), xmarkFile(t, dir, 2)
	qs := queryFlags("Q1", "Q6", "Q13")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"workload", append(qs, "-input", doc1, "-stats", "-stats-json")},
		{"explain", append(qs, "-explain")},
		{"bulk", append(qs, "-input", doc1, "-input", doc2, "-j", "2", "-stats", "-stats-json")},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr := runGcx(t, c.args...)
			got := "== stdout ==\n" + stdout + "== stderr ==\n" + scrub(stderr)
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("gcx %s differs from %s:\n%s", c.name, golden, got)
			}
		})
	}
}

// TestDuplicateQueriesShareAGroup: `-q X -q X` prints X's result twice and
// reports X's output bytes on both rows, exactly as two solo runs would,
// while the two flags share one evaluation: -explain shows one member.
func TestDuplicateQueriesShareAGroup(t *testing.T) {
	doc := xmarkFile(t, t.TempDir(), 1)
	solo, soloErr := runGcx(t, append(queryFlags("Q6"), "-input", doc, "-stats-json")...)
	twice, twiceErr := runGcx(t, append(queryFlags("Q6", "Q6"), "-input", doc, "-stats-json")...)
	if twice != solo+solo {
		t.Fatalf("-q Q6 -q Q6 printed %q, want the solo result twice (%q)", twice, solo)
	}
	var one, two jsonStats
	if err := json.Unmarshal([]byte(soloErr), &one); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(twiceErr), &two); err != nil {
		t.Fatal(err)
	}
	if len(two.Queries) != 2 {
		t.Fatalf("%d query rows for two flags", len(two.Queries))
	}
	for i, q := range two.Queries {
		if q.OutputBytes != one.Aggregate.OutputBytes {
			t.Errorf("flag %d: output_bytes %d, solo %d", i, q.OutputBytes, one.Aggregate.OutputBytes)
		}
	}
	_, explain := runGcx(t, append(queryFlags("Q6", "Q6"), "-explain")...)
	if !strings.Contains(explain, "=== query 0 ") || strings.Contains(explain, "=== query 1 ") {
		t.Errorf("-q Q6 -q Q6 -explain does not show one shared member:\n%s", explain)
	}
}
