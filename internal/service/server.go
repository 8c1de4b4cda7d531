package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Config tunes a Server. The zero value is serviceable: listen on
// :8377, 30s default / 120s max request deadline, 1024 sessions,
// 2M-node analyze budget.
type Config struct {
	// Addr is the listen address; empty means ":8377".
	Addr string
	// DefaultTimeout bounds requests that do not carry timeout_ms;
	// 0 means 30s, negative means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request deadline (including client-supplied
	// timeout_ms); 0 means 120s, negative means unclamped.
	MaxTimeout time.Duration
	// MaxSessions caps live admission sessions; 0 means 1024.
	MaxSessions int
	// AnalyzeBudget is the default exact-adversary node budget for
	// /v1/analyze; 0 means 2,000,000. Exhaustion degrades the analysis, it
	// never fails it.
	AnalyzeBudget int64
	// Logf receives lifecycle and panic lines; nil discards them.
	Logf func(format string, args ...any)

	// DataDir, when non-empty, enables durability: every session-mutating
	// op is appended to a write-ahead log under this directory before it
	// is acknowledged, and periodic snapshots bound recovery replay. Only
	// NewDurable honors it; New ignores the durability fields entirely.
	DataDir string
	// FsyncInterval is the group-commit window: writes reach the OS on
	// every append (process-crash safe), fsync runs on this cadence
	// (power-loss window). 0 means 5ms; negative means fsync every append.
	FsyncInterval time.Duration
	// SnapshotEvery triggers a snapshot after this many appended ops.
	// 0 means 1024; negative disables automatic snapshots (Close still
	// writes a final one).
	SnapshotEvery int
}

// Server is the admission-control service: the handler set plus the
// session store and metrics registry. Construct with
// New, then either mount Handler into an existing http.Server or use
// Listen/Serve/Shutdown for the managed lifecycle.
type Server struct {
	cfg      Config
	sessions *sessionStore
	metrics  *Metrics
	handler  http.Handler

	hs *http.Server
	ln net.Listener

	// peerClient carries migration traffic to other replicas.
	peerClient *http.Client

	// dur is nil unless the server was built with NewDurable; every
	// durability hook is nil-receiver-safe, so the non-durable path pays
	// one branch per call site.
	dur *durability
}

// New builds a Server from cfg (see Config for zero-value defaults).
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":8377"
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 120 * time.Second
	}
	if cfg.DefaultTimeout < 0 {
		cfg.DefaultTimeout = 0
	}
	if cfg.MaxTimeout < 0 {
		cfg.MaxTimeout = 0
	}
	if cfg.AnalyzeBudget <= 0 {
		cfg.AnalyzeBudget = 2_000_000
	}
	s := &Server{
		cfg:        cfg,
		sessions:   newSessionStore(cfg.MaxSessions),
		peerClient: &http.Client{},
	}
	s.metrics = NewMetrics(s.sessions.count)
	s.sessions.mx = s.metrics
	s.handler = s.routes()
	return s
}

// NewDurable builds a Server whose session mutations are durable: it
// recovers the session store from cfg.DataDir (latest valid snapshot plus
// write-ahead log replay through the real engine paths), then arranges
// for every subsequent mutation to be appended — and acknowledged — via
// the WAL. cfg.DataDir must be non-empty. The caller owns Close (Shutdown
// calls it), which drains the group-commit buffer and writes a final
// snapshot.
func NewDurable(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: NewDurable requires Config.DataDir")
	}
	fsync := cfg.FsyncInterval
	if fsync == 0 {
		fsync = 5 * time.Millisecond
	} else if fsync < 0 {
		fsync = 0 // oplog convention: 0 = fsync on every append
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1024
	} else if snapEvery < 0 {
		snapEvery = 0 // durability convention: 0 = no automatic snapshots
	}
	s := New(cfg)
	dur, err := openDurability(cfg.DataDir, fsync, snapEvery, s.sessions, s.logf)
	if err != nil {
		return nil, err
	}
	s.dur = dur
	s.metrics.walStats = dur.walStats
	return s, nil
}

// Close releases the durability layer: it flushes the WAL group-commit
// buffer, writes a final snapshot, and closes the log. A server built
// with New has nothing to release. Safe to call more than once.
func (s *Server) Close() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.Close()
}

// Crash abandons the durability layer without the final fsync or
// snapshot, simulating a process kill: records whose write syscalls
// completed survive, buffered fsync state is lost. A test hook; a
// production server should use Close.
func (s *Server) Crash() {
	s.dur.crash()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler exposes the full route set for embedding and tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the registry for reading without scraping.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Listen binds the configured address (":0" picks an ephemeral port;
// read it back with Addr) without serving yet.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.handler}
	return nil
}

// Addr returns the bound address after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Serve blocks serving the bound listener; it returns
// http.ErrServerClosed after a graceful Shutdown.
func (s *Server) Serve() error {
	if s.hs == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	s.logf("service: serving on %s", s.Addr())
	return s.hs.Serve(s.ln)
}

// Shutdown drains gracefully: the listener closes immediately, in-flight
// requests run to completion (their contexts are not cancelled), and the
// call returns when the last one finishes or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs == nil {
		return s.Close()
	}
	s.logf("service: draining")
	err := s.hs.Shutdown(ctx)
	// With every in-flight request finished, the WAL buffer drains and
	// the final snapshot covers all acknowledged ops — a restart after a
	// clean drain replays zero records.
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	s.logf("service: stopped")
	return err
}
