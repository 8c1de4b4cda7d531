// Command serve runs the partfeas admission-control server: the paper's
// feasibility tests behind a JSON-over-HTTP API with stateful admission
// sessions, per-request deadlines and a Prometheus-text /metrics
// endpoint.
//
// Usage:
//
//	serve                          # listen on :8377
//	serve -addr :9000 -timeout 5s
//
// newFlagSet declares every flag; README.md's serve flag table documents
// each one, and TestFlagsDocumented keeps the two in step.
//
// Endpoints:
//
//	POST /v1/test        one feasibility test        {tasks, speeds|machines, scheduler, alpha}
//	POST /v1/minalpha    smallest accepted α          {…, lo, hi, tol}
//	POST /v1/analyze     full per-instance analysis   {…, exact_budget}
//	POST /v1/sessions    open an admission session    {…, alpha, placement}
//	GET/DELETE /v1/sessions/{id}
//	POST /v1/sessions/{id}/test     re-test           {alpha}
//	POST /v1/sessions/{id}/tasks    admit a task      {task, force}
//	POST /v1/sessions/{id}/admit-batch  admit several  {tasks, mode}
//	DELETE /v1/sessions/{id}/tasks/{index}
//	POST /v1/sessions/{id}/wcet     incremental WCET  {index, wcet, force}
//	POST /v1/sessions/{id}/repartition  drift plan/apply  {apply, max_moves}
//	GET /metrics, /healthz, /debug/vars
//
// With -data-dir the session store is durable: every mutation is
// appended to a write-ahead log before its 200 is sent, snapshots bound
// recovery replay, and a restart reloads the store from disk. The
// -fsync-interval flag trades latency for loss window: writes reach the
// OS on every append (a process crash loses nothing acknowledged), but a
// power loss can drop up to one interval of acknowledged ops; 0 fsyncs
// on every append.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, in-flight
// requests finish (bounded by -drain), the WAL group-commit buffer
// flushes and a final snapshot is written, then the process exits 0.
//
// With -coordinator the process is a cluster coordinator instead of a
// replica: it routes /v1/sessions/* to the owner replica by consistent
// hash of the session ID (-replicas lists their base URLs, -vnodes sets
// the ring's virtual-node count), answers stateless endpoints locally,
// health-checks replicas, and serves the /v1/cluster membership API
// (join / leave / rebalance / migrate).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partfeas/internal/cluster"
	"partfeas/internal/service"
)

// options holds the parsed serve flags.
type options struct {
	addr          string
	timeout       time.Duration
	maxTimeout    time.Duration
	drain         time.Duration
	maxSessions   int
	analyzeBudget int64
	dataDir       string
	fsyncInterval time.Duration
	snapshotEvery int

	coordinator    bool
	replicas       string
	vnodes         int
	healthInterval time.Duration
}

// newFlagSet registers every serve flag, bound to o. It is the one place
// flags are declared, so the README check in main_test.go sees them all.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8377", "listen address")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-request deadline (requests may lower it via timeout_ms)")
	fs.DurationVar(&o.maxTimeout, "max-timeout", 120*time.Second, "upper clamp on any request deadline")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	fs.IntVar(&o.maxSessions, "max-sessions", 1024, "admission-session cap")
	fs.Int64Var(&o.analyzeBudget, "analyze-budget", 2_000_000, "default exact-adversary node budget for /v1/analyze")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory (write-ahead log + snapshots); empty disables durability")
	fs.DurationVar(&o.fsyncInterval, "fsync-interval", 5*time.Millisecond, "WAL group-commit fsync cadence; 0 fsyncs on every append (requires -data-dir)")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 1024, "ops between automatic snapshots; 0 disables automatic snapshots (requires -data-dir)")

	fs.BoolVar(&o.coordinator, "coordinator", false, "run as a cluster coordinator instead of a replica")
	fs.StringVar(&o.replicas, "replicas", "", "comma-separated replica base URLs (requires -coordinator)")
	fs.IntVar(&o.vnodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per replica on the hash ring (requires -coordinator)")
	fs.DurationVar(&o.healthInterval, "health-interval", 2*time.Second, "replica health-probe cadence (requires -coordinator)")
	return fs
}

func main() {
	var o options
	_ = newFlagSet(&o).Parse(os.Args[1:]) // ExitOnError: a bad flag exits 2
	var err error
	if o.coordinator {
		err = runCoordinator(o.addr, o.replicas, o.vnodes, o.healthInterval, o.drain)
	} else {
		err = run(o.addr, o.timeout, o.maxTimeout, o.drain, o.maxSessions, o.analyzeBudget, o.dataDir, o.fsyncInterval, o.snapshotEvery)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func runCoordinator(addr, replicas string, vnodes int, healthIv, drain time.Duration) error {
	logger := log.New(os.Stderr, "", log.LstdFlags)
	var urls []string
	for _, u := range strings.Split(replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return errors.New("-coordinator requires -replicas (comma-separated base URLs)")
	}
	c := cluster.New(cluster.Config{
		Addr:           addr,
		Replicas:       urls,
		VNodes:         vnodes,
		HealthInterval: healthIv,
		Logf:           logger.Printf,
	})
	if err := c.Listen(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- c.Serve() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("serve: signal received, draining for up to %v", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := c.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func run(addr string, timeout, maxTO, drain time.Duration, sessions int, budget int64, dataDir string, fsyncInt time.Duration, snapEvery int) error {
	logger := log.New(os.Stderr, "", log.LstdFlags)
	cfg := service.Config{
		Addr:           addr,
		DefaultTimeout: timeout,
		MaxTimeout:     maxTO,
		MaxSessions:    sessions,
		AnalyzeBudget:  budget,
		Logf:           logger.Printf,
	}
	var srv *service.Server
	if dataDir != "" {
		// The flag's 0 means fsync-per-append and its default means group
		// commit; the Config encodes those as negative and positive.
		cfg.DataDir = dataDir
		cfg.FsyncInterval = fsyncInt
		if fsyncInt == 0 {
			cfg.FsyncInterval = -1
		}
		cfg.SnapshotEvery = snapEvery
		if snapEvery == 0 {
			cfg.SnapshotEvery = -1
		}
		var err error
		srv, err = service.NewDurable(cfg)
		if err != nil {
			return err
		}
	} else {
		srv = service.New(cfg)
	}
	if err := srv.Listen(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	select {
	case err := <-errc:
		// Listener failed before any signal.
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Printf("serve: signal received, draining for up to %v", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
