// Command gcxd serves streaming XQuery evaluation over HTTP.
//
// Clients POST an XML document; the body is fed to the engine as a
// stream (never fully buffered), so per-request memory stays at the GCX
// buffer peak regardless of document size. Queries are given inline
// (?q=...) or by id from a registry loaded at startup; several
// registered queries can be evaluated over ONE pass of the body via
// POST /workload.
//
// Usage:
//
//	gcxd -listen :8080 -queries queries.xq
//	curl -X POST --data-binary @doc.xml 'localhost:8080/query?id=q1'
//	curl -X POST --data-binary @doc.xml --url-query 'q=<r>{ for $b in /bib/book return $b/title }</r>' 'localhost:8080/query'
//	curl -X POST --data-binary @doc.xml 'localhost:8080/workload'
//	curl -X POST -H 'Content-Type: application/x-tar' --data-binary @corpus.tar 'localhost:8080/bulk?id=q1&j=8'
//	cat *.xml | curl -X POST --data-binary @- 'localhost:8080/bulk?id=q1'
//	curl 'localhost:8080/metrics'
//
// Operational endpoints: GET /healthz (liveness), GET /readyz
// (readiness: registry loaded and the server not saturated), GET
// /buildinfo (build metadata), GET /metrics (Prometheus text with
// latency/TTFR histograms; ?format=json), and — behind -pprof — the
// net/http/pprof suite under /debug/pprof/.
//
// The registry file holds one query, or several separated by "=== <id>"
// lines; a directory registers every *.xq file under its basename.
// SIGHUP reloads the registry by rebuilding it through the compile cache:
// unchanged queries are cache hits, ids come in the file's order as after
// a restart, every request sees one generation, and a registry that fails
// to load or compile is rejected while the previous one keeps serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcx"
	"gcx/internal/server"
	"gcx/internal/units"
)

func main() {
	var (
		listen      = flag.String("listen", ":8080", "address to listen on (use :0 for an ephemeral port; the resolved address is logged)")
		queries     = flag.String("queries", "", "query registry: a file (queries separated by '=== <id>' lines) or a directory of *.xq files")
		mode        = flag.String("mode", "gcx", "buffering strategy: gcx, static, full")
		cacheCap    = flag.Int("cache", gcx.DefaultCompileCacheCapacity, "compile cache capacity (entries)")
		maxBody     = flag.String("max-body", "256MB", "maximum request body size (0 = unlimited)")
		maxDoc      = flag.String("max-doc", "64MB", "maximum size of a single /bulk corpus document (0 = unlimited)")
		bulkJobs    = flag.Int("bulk-workers", 0, "per-request /bulk worker cap and default (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-request evaluation timeout (0 = none)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown drain period")
		maxInflight = flag.Int("max-inflight", 0, "in-flight request count at which /readyz reports 503 (0 = readiness ignores load)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if err := run(config{
		listen:      *listen,
		queriesPath: *queries,
		mode:        *mode,
		cacheCap:    *cacheCap,
		maxBody:     *maxBody,
		maxDoc:      *maxDoc,
		bulkJobs:    *bulkJobs,
		timeout:     *timeout,
		drain:       *drain,
		maxInflight: *maxInflight,
		pprof:       *pprofOn,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "gcxd:", err)
		os.Exit(1)
	}
}

type config struct {
	listen      string
	queriesPath string
	mode        string
	cacheCap    int
	maxBody     string
	maxDoc      string
	bulkJobs    int
	timeout     time.Duration
	drain       time.Duration
	maxInflight int
	pprof       bool
}

func run(c config) error {
	var opts []gcx.Option
	switch c.mode {
	case "gcx":
	case "static":
		opts = append(opts, gcx.WithStrategy(gcx.StaticOnly))
	case "full":
		opts = append(opts, gcx.WithStrategy(gcx.FullBuffer))
	default:
		return fmt.Errorf("unknown mode %q (want gcx, static, or full)", c.mode)
	}

	maxBodyBytes, err := units.ParseSize(c.maxBody)
	if err != nil {
		return fmt.Errorf("-max-body: %w", err)
	}
	maxDocBytes, err := units.ParseSize(c.maxDoc)
	if err != nil {
		return fmt.Errorf("-max-doc: %w", err)
	}

	// A registry that fails to load boots the server DEGRADED rather than
	// not at all: inline queries, liveness, and metrics keep working, and
	// /readyz reports 503 with the reason so orchestrators hold traffic
	// while the operator fixes the registry.
	var reg *server.Registry
	var regErr error
	if c.queriesPath != "" {
		reg, regErr = server.LoadRegistry(c.queriesPath)
		if regErr != nil {
			reg = nil
			fmt.Fprintf(os.Stderr, "gcxd: registry %s unavailable, booting not-ready: %v\n", c.queriesPath, regErr)
		}
	}

	srv, err := server.New(server.Config{
		Registry:     reg,
		Cache:        gcx.NewCompileCache(c.cacheCap),
		Options:      opts,
		MaxBodyBytes: maxBodyBytes,
		MaxDocBytes:  maxDocBytes,
		BulkWorkers:  c.bulkJobs,
		Timeout:      c.timeout,
		MaxInflight:  c.maxInflight,
		EnablePprof:  c.pprof,
	})
	if err != nil {
		return err
	}
	if regErr != nil {
		srv.SetNotReady(fmt.Sprintf("registry %s: %v", c.queriesPath, regErr))
	}
	if reg != nil {
		fmt.Fprintf(os.Stderr, "gcxd: registered %d queries from %s\n", reg.Len(), c.queriesPath)
	}

	hs := &http.Server{
		Handler: srv,
		// Connection-level backstops: the per-request evaluation timeout
		// is enforced inside the handler (input reads and output writes
		// both check the deadline), but a fully stalled client blocks in
		// the kernel where no check runs — the socket deadlines bound
		// that. WriteTimeout spans body read + evaluation + response, so
		// it gets headroom over the evaluation timeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if c.timeout > 0 {
		hs.WriteTimeout = 2 * c.timeout
	}

	// Listen before serving so the RESOLVED address (meaningful with
	// -listen :0) is logged on one parseable line; the ops smoke test and
	// local tooling scrape it.
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP reloads the query registry (Server.ReloadRegistry): unchanged
	// ids keep their compiled artifacts in the serving fleet, a broken new
	// registry rejects the reload and the old one keeps serving.
	if c.queriesPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				newReg, err := server.LoadRegistry(c.queriesPath)
				if err == nil {
					err = srv.ReloadRegistry(newReg)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "gcxd: registry reload failed, keeping previous: %v\n", err)
					continue
				}
				srv.SetReady()
				fmt.Fprintf(os.Stderr, "gcxd: registry reloaded: %d queries from %s\n", newReg.Len(), c.queriesPath)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gcxd: listening on %s (mode %s)\n", ln.Addr(), c.mode)
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "gcxd: shutting down, draining in-flight requests")
	dctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
