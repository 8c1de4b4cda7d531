package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partfeas/internal/service"
)

// Config tunes a Coordinator.
type Config struct {
	// Addr is the listen address; empty means ":8370".
	Addr string
	// Replicas are the initial replica base URLs (e.g.
	// "http://127.0.0.1:8377"). Membership can change later via
	// Join/Leave or the /v1/cluster endpoints.
	Replicas []string
	// VNodes is the virtual-node count per replica; 0 means DefaultVNodes.
	VNodes int
	// HealthInterval is the replica probe cadence; 0 means 2s, negative
	// disables the background loop (tests drive probes explicitly).
	HealthInterval time.Duration
	// IDPrefix seeds coordinator-assigned session IDs
	// ("<prefix>-<n>"). Empty means a startup-unique prefix, so a
	// restarted coordinator never re-issues an ID that may still be live
	// on a durable replica.
	IDPrefix string
	// Local serves the stateless endpoints (/v1/test, /v1/minalpha,
	// /v1/analyze); nil means a fresh default service.New.
	Local *service.Server
	// Logf receives lifecycle lines; nil discards them.
	Logf func(format string, args ...any)
}

// replicaState is what the health loop knows about one replica.
type replicaState struct {
	Up       bool `json:"up"`
	Sessions int  `json:"sessions"`
	Draining bool `json:"draining"`
	// InRing distinguishes a drained-but-still-contacted replica from a
	// routing member.
	InRing bool `json:"in_ring"`
}

// Coordinator fronts a set of admission-service replicas: session
// traffic is routed by consistent hash of the session ID, ownership
// moves via the replicas' epoch-fenced migration protocol, and
// stateless analysis endpoints are answered locally.
type Coordinator struct {
	cfg   Config
	local *service.Server

	mu       sync.Mutex
	ring     *Ring
	replicas map[string]*replicaState // every contactable replica, ring member or not
	// overrides routes a session to the replica that actually holds it
	// when that differs from the ring owner (operator-placed sessions,
	// mid-rebalance state). Learned from 421 redirects, self-driven
	// migrations, and health-loop scrapes.
	overrides map[string]string
	forwarded map[string]uint64 // completed forwards by replica
	seq       uint64

	degradedPassthrough atomic.Uint64 // replica 503s relayed unchanged
	migrationRetries    atomic.Uint64 // forwards retried on in-progress migrations
	redirects           atomic.Uint64 // forwards re-routed by a 421 tombstone

	client  *http.Client
	handler http.Handler

	hs     *http.Server
	ln     net.Listener
	stopHC chan struct{}
	hcDone chan struct{}
}

// New builds a Coordinator over cfg.Replicas.
func New(cfg Config) *Coordinator {
	if cfg.Addr == "" {
		cfg.Addr = ":8370"
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = fmt.Sprintf("c%x", time.Now().UnixNano())
	}
	c := &Coordinator{
		cfg:       cfg,
		local:     cfg.Local,
		ring:      NewRing(cfg.Replicas, cfg.VNodes),
		replicas:  make(map[string]*replicaState, len(cfg.Replicas)),
		overrides: map[string]string{},
		forwarded: map[string]uint64{},
		client:    &http.Client{},
		stopHC:    make(chan struct{}),
		hcDone:    make(chan struct{}),
	}
	if c.local == nil {
		c.local = service.New(service.Config{Logf: cfg.Logf})
	}
	for _, rep := range c.ring.Members() {
		c.replicas[rep] = &replicaState{InRing: true}
	}
	c.handler = c.routes()
	if cfg.HealthInterval > 0 {
		go c.healthLoop()
	} else {
		close(c.hcDone)
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Handler exposes the full coordinator route set.
func (c *Coordinator) Handler() http.Handler { return c.handler }

func (c *Coordinator) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sessions", c.handleSessionsRoot)
	mux.HandleFunc("/v1/sessions/", c.handleSessionPath)
	mux.HandleFunc("GET /v1/cluster", c.handleClusterStatus)
	mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	mux.HandleFunc("POST /v1/cluster/rebalance", c.handleRebalance)
	mux.HandleFunc("POST /v1/cluster/migrate", c.handleMigrate)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "coordinator"})
	})
	mux.Handle("/", c.local.Handler())
	return mux
}

// ---- session routing ----

// handleSessionsRoot forwards session creation. The coordinator assigns
// the ID (the ring routes by ID, which must exist before the session
// does) and passes it via X-Session-ID; a client-supplied X-Session-ID
// is honored.
func (c *Coordinator) handleSessionsRoot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		service.WriteJSON(w, http.StatusMethodNotAllowed, service.ErrorResponse{Error: "method not allowed"})
		return
	}
	id := r.Header.Get("X-Session-ID")
	if id == "" {
		c.mu.Lock()
		c.seq++
		id = fmt.Sprintf("%s-%d", c.cfg.IDPrefix, c.seq)
		c.mu.Unlock()
		r.Header.Set("X-Session-ID", id)
	}
	c.forward(w, r, id)
}

// handleSessionPath forwards every per-session operation to the owner
// of the ID in the path.
func (c *Coordinator) handleSessionPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, _, _ := strings.Cut(rest, "/")
	if id == "" {
		service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "missing session id"})
		return
	}
	c.forward(w, r, id)
}

// routeFor resolves the replica a session ID should be sent to.
func (c *Coordinator) routeFor(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep, ok := c.overrides[id]; ok {
		return rep
	}
	return c.ring.Owner(id)
}

// forwardAttempts bounds one request's routing walk: an initial send
// plus a few migration-wait retries or one tombstone redirect hop.
const forwardAttempts = 5

// forward relays r to the owner of id, following the migration
// protocol's routing signals: a 503 marked X-Migration is retried here
// (the handoff is sub-second), a 421 re-routes to the X-Session-Owner
// it names, and everything else — including a WAL-degraded replica's
// plain 503 — is the replica's answer and passes through unchanged.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, id string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<26))
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: fmt.Sprintf("reading request body: %v", err)})
		return
	}
	replica := c.routeFor(id)
	if replica == "" {
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorResponse{Error: "no replicas in the ring"})
		return
	}
	for attempt := 0; ; attempt++ {
		res, err := c.send(r, replica, body)
		if err != nil {
			service.WriteJSON(w, http.StatusBadGateway, service.ErrorResponse{Error: fmt.Sprintf("replica %s: %v", replica, err)})
			return
		}
		if attempt < forwardAttempts {
			if res.StatusCode == http.StatusMisdirectedRequest {
				owner := res.Header.Get("X-Session-Owner")
				drain(res)
				if owner != "" && owner != replica {
					c.redirects.Add(1)
					c.noteOverride(id, owner)
					replica = owner
					continue
				}
				// A tombstone without a known owner (or pointing at
				// ourselves) is the final answer.
				service.WriteJSON(w, http.StatusMisdirectedRequest, service.ErrorResponse{Error: fmt.Sprintf("session %q moved from %s with no reachable owner", id, replica)})
				return
			}
			if res.StatusCode == http.StatusServiceUnavailable && res.Header.Get("X-Migration") != "" {
				drain(res)
				c.migrationRetries.Add(1)
				time.Sleep(25 * time.Millisecond << uint(attempt))
				continue
			}
		}
		if res.StatusCode == http.StatusServiceUnavailable {
			// A plain 503 is the replica refusing writes (WAL-degraded):
			// the client must see it — and its Retry-After — unchanged.
			c.degradedPassthrough.Add(1)
		}
		c.relay(w, res, replica)
		return
	}
}

// send replays the buffered request against one replica.
func (c *Coordinator) send(r *http.Request, replica string, body []byte) (*http.Response, error) {
	u := strings.TrimRight(replica, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Session-ID"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set("X-Forwarded-By", "partfeas-coordinator")
	return c.client.Do(req)
}

// relay copies the replica's response to the client, stamped with the
// shard that answered.
func (c *Coordinator) relay(w http.ResponseWriter, res *http.Response, replica string) {
	defer res.Body.Close()
	for k, vs := range res.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Shard", replica)
	w.WriteHeader(res.StatusCode)
	io.Copy(w, res.Body)
	c.mu.Lock()
	c.forwarded[replica]++
	c.mu.Unlock()
}

func (c *Coordinator) noteOverride(id, replica string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.Owner(id) == replica {
		delete(c.overrides, id)
	} else {
		c.overrides[id] = replica
	}
}

func drain(res *http.Response) {
	io.Copy(io.Discard, io.LimitReader(res.Body, 1<<20))
	res.Body.Close()
}

// ---- membership and rebalancing ----

// Join adds a replica to the ring and rebalances onto it.
func (c *Coordinator) Join(ctx context.Context, replica string) (int, error) {
	c.mu.Lock()
	c.ring = c.ring.With(replica)
	if st := c.replicas[replica]; st != nil {
		st.InRing = true
		st.Draining = false
	} else {
		c.replicas[replica] = &replicaState{InRing: true}
	}
	c.mu.Unlock()
	c.logf("cluster: %s joined the ring", replica)
	return c.Rebalance(ctx)
}

// Leave drains a replica: it comes off the ring (so nothing new routes
// there), its sessions migrate to their new owners, and only then is it
// dropped from the contact set.
func (c *Coordinator) Leave(ctx context.Context, replica string) (int, error) {
	c.mu.Lock()
	c.ring = c.ring.Without(replica)
	if st := c.replicas[replica]; st != nil {
		st.InRing = false
		st.Draining = true
	}
	c.mu.Unlock()
	c.logf("cluster: %s leaving; draining", replica)
	moved, err := c.Rebalance(ctx)
	if err != nil {
		return moved, err
	}
	c.mu.Lock()
	delete(c.replicas, replica)
	c.mu.Unlock()
	c.logf("cluster: %s left (%d session(s) moved)", replica, moved)
	return moved, nil
}

// Rebalance walks every contactable replica's session index and
// migrates each session whose ring owner is elsewhere; unconfirmed
// handoffs (retained tombstones) are re-driven. Returns the number of
// sessions moved. Consistent hashing bounds the work: a single
// membership change relocates ~1/N of sessions.
func (c *Coordinator) Rebalance(ctx context.Context) (int, error) {
	c.mu.Lock()
	ring := c.ring
	replicas := make([]string, 0, len(c.replicas))
	for rep := range c.replicas {
		replicas = append(replicas, rep)
	}
	c.mu.Unlock()
	sort.Strings(replicas)

	moved := 0
	var firstErr error
	for _, rep := range replicas {
		idx, err := c.fetchIndex(ctx, rep)
		if err != nil {
			// An unreachable replica keeps its sessions; the next
			// rebalance (or its restart) picks them up.
			c.logf("cluster: rebalance: skipping %s: %v", rep, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", rep, err)
			}
			continue
		}
		for _, mv := range idx.Moved {
			if !mv.Retained {
				continue
			}
			// A fenced-but-unconfirmed handoff from a crashed or
			// interrupted migration: re-drive it to its recorded target.
			if err := c.migrate(ctx, rep, mv.ID, mv.Target); err != nil {
				c.logf("cluster: rebalance: re-driving %s from %s: %v", mv.ID, rep, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			c.noteOverride(mv.ID, mv.Target)
			moved++
		}
		for _, si := range idx.Sessions {
			want := ring.Owner(si.ID)
			if want == "" || want == rep {
				c.noteOverride(si.ID, rep)
				continue
			}
			if err := c.migrate(ctx, rep, si.ID, want); err != nil {
				c.logf("cluster: rebalance: moving %s %s→%s: %v", si.ID, rep, want, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			c.noteOverride(si.ID, want)
			moved++
		}
	}
	if moved > 0 {
		c.logf("cluster: rebalance moved %d session(s)", moved)
	}
	return moved, firstErr
}

// migrate asks the replica holding id to hand it to target.
func (c *Coordinator) migrate(ctx context.Context, holder, id, target string) error {
	var resp service.MigrateResponse
	return service.PostJSON(ctx, c.client, holder, "/v1/sessions/"+id+"/migrate", service.MigrateRequest{Target: target}, &resp, 1<<20)
}

func (c *Coordinator) fetchIndex(ctx context.Context, replica string) (*service.SessionIndex, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(replica, "/")+"/internal/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	res, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("session index: %s", res.Status)
	}
	var idx service.SessionIndex
	if err := json.NewDecoder(io.LimitReader(res.Body, 1<<26)).Decode(&idx); err != nil {
		return nil, err
	}
	return &idx, nil
}

// ---- health ----

func (c *Coordinator) healthLoop() {
	defer close(c.hcDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHC:
			return
		case <-t.C:
			c.Probe(context.Background())
		}
	}
}

// Probe refreshes every replica's health and session count, and learns
// routing overrides for sessions living off their ring owner. Exported
// so tests (and the smoke gate) can drive it without waiting a tick.
func (c *Coordinator) Probe(ctx context.Context) {
	c.mu.Lock()
	replicas := make([]string, 0, len(c.replicas))
	for rep := range c.replicas {
		replicas = append(replicas, rep)
	}
	ring := c.ring
	c.mu.Unlock()

	for _, rep := range replicas {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		idx, err := c.fetchIndex(pctx, rep)
		cancel()
		c.mu.Lock()
		st := c.replicas[rep]
		if st == nil {
			c.mu.Unlock()
			continue
		}
		if err != nil {
			st.Up = false
			c.mu.Unlock()
			continue
		}
		st.Up = true
		st.Sessions = len(idx.Sessions)
		for _, si := range idx.Sessions {
			if ring.Owner(si.ID) == rep {
				delete(c.overrides, si.ID)
			} else {
				c.overrides[si.ID] = rep
			}
		}
		c.mu.Unlock()
	}
}

// ---- cluster admin endpoints ----

// ReplicaStatus is one row of the /v1/cluster report.
type ReplicaStatus struct {
	URL       string `json:"url"`
	Up        bool   `json:"up"`
	Sessions  int    `json:"sessions"`
	InRing    bool   `json:"in_ring"`
	Draining  bool   `json:"draining,omitempty"`
	Forwarded uint64 `json:"forwarded_requests"`
}

// ClusterStatus is the /v1/cluster report.
type ClusterStatus struct {
	Replicas            []ReplicaStatus `json:"replicas"`
	VNodes              int             `json:"vnodes"`
	Overrides           int             `json:"routing_overrides"`
	MigrationRetries    uint64          `json:"migration_retries"`
	Redirects           uint64          `json:"redirects"`
	DegradedPassthrough uint64          `json:"degraded_passthrough"`
}

// Status snapshots the cluster view (also served at GET /v1/cluster).
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClusterStatus{
		VNodes:              c.ring.vnodes,
		Overrides:           len(c.overrides),
		MigrationRetries:    c.migrationRetries.Load(),
		Redirects:           c.redirects.Load(),
		DegradedPassthrough: c.degradedPassthrough.Load(),
	}
	urls := make([]string, 0, len(c.replicas))
	for rep := range c.replicas {
		urls = append(urls, rep)
	}
	sort.Strings(urls)
	for _, rep := range urls {
		st := c.replicas[rep]
		out.Replicas = append(out.Replicas, ReplicaStatus{
			URL: rep, Up: st.Up, Sessions: st.Sessions,
			InRing: st.InRing, Draining: st.Draining,
			Forwarded: c.forwarded[rep],
		})
	}
	return out
}

func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.Status())
}

type memberRequest struct {
	Replica string `json:"replica"`
}

type migrateAdminRequest struct {
	ID     string `json:"id"`
	Target string `json:"target"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if !decodeAdmin(w, r, &req) || !validReplica(w, req.Replica) {
		return
	}
	moved, err := c.Join(r.Context(), req.Replica)
	if err != nil {
		service.WriteJSON(w, http.StatusBadGateway, service.ErrorResponse{Error: fmt.Sprintf("joined; rebalance incomplete: %v", err)})
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"joined": req.Replica, "moved": moved})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if !decodeAdmin(w, r, &req) || !validReplica(w, req.Replica) {
		return
	}
	moved, err := c.Leave(r.Context(), req.Replica)
	if err != nil {
		service.WriteJSON(w, http.StatusBadGateway, service.ErrorResponse{Error: fmt.Sprintf("drain incomplete: %v", err)})
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"left": req.Replica, "moved": moved})
}

func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	moved, err := c.Rebalance(r.Context())
	if err != nil {
		service.WriteJSON(w, http.StatusBadGateway, service.ErrorResponse{Error: fmt.Sprintf("rebalance incomplete after %d move(s): %v", moved, err)})
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"moved": moved})
}

// handleMigrate moves one session to an explicit replica (operator
// placement); the coordinator remembers the override so routing follows.
func (c *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req migrateAdminRequest
	if !decodeAdmin(w, r, &req) || !validReplica(w, req.Target) {
		return
	}
	if req.ID == "" {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: "id is required"})
		return
	}
	holder := c.routeFor(req.ID)
	if holder == "" {
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorResponse{Error: "no replicas in the ring"})
		return
	}
	if holder == req.Target {
		service.WriteJSON(w, http.StatusOK, map[string]any{"migrated": false, "already_on": holder})
		return
	}
	if err := c.migrate(r.Context(), holder, req.ID, req.Target); err != nil {
		service.WriteJSON(w, http.StatusBadGateway, service.ErrorResponse{Error: fmt.Sprintf("migrating %s %s→%s: %v", req.ID, holder, req.Target, err)})
		return
	}
	c.noteOverride(req.ID, req.Target)
	service.WriteJSON(w, http.StatusOK, map[string]any{"migrated": true, "from": holder, "to": req.Target})
}

func decodeAdmin[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

func validReplica(w http.ResponseWriter, url string) bool {
	if strings.HasPrefix(url, "http://") || strings.HasPrefix(url, "https://") {
		return true
	}
	service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: fmt.Sprintf("replica %q must be a base URL", url)})
	return false
}

// ---- metrics ----

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := c.Status()
	fmt.Fprintf(w, "# HELP partfeas_forwarded_requests_total Session requests forwarded to a replica.\n")
	fmt.Fprintf(w, "# TYPE partfeas_forwarded_requests_total counter\n")
	for _, rep := range st.Replicas {
		fmt.Fprintf(w, "partfeas_forwarded_requests_total{replica=%q} %d\n", rep.URL, rep.Forwarded)
	}
	fmt.Fprintf(w, "# HELP partfeas_replica_up 1 if the replica answered its last probe.\n")
	fmt.Fprintf(w, "# TYPE partfeas_replica_up gauge\n")
	for _, rep := range st.Replicas {
		up := 0
		if rep.Up {
			up = 1
		}
		fmt.Fprintf(w, "partfeas_replica_up{replica=%q} %d\n", rep.URL, up)
	}
	fmt.Fprintf(w, "# HELP partfeas_replica_sessions Sessions held per replica at the last probe.\n")
	fmt.Fprintf(w, "# TYPE partfeas_replica_sessions gauge\n")
	for _, rep := range st.Replicas {
		fmt.Fprintf(w, "partfeas_replica_sessions{replica=%q} %d\n", rep.URL, rep.Sessions)
	}
	fmt.Fprintf(w, "# HELP partfeas_forward_migration_retries_total Forwards retried while a session handoff was in progress.\n")
	fmt.Fprintf(w, "# TYPE partfeas_forward_migration_retries_total counter\n")
	fmt.Fprintf(w, "partfeas_forward_migration_retries_total %d\n", st.MigrationRetries)
	fmt.Fprintf(w, "# HELP partfeas_forward_redirects_total Forwards re-routed by a moved-session redirect.\n")
	fmt.Fprintf(w, "# TYPE partfeas_forward_redirects_total counter\n")
	fmt.Fprintf(w, "partfeas_forward_redirects_total %d\n", st.Redirects)
	fmt.Fprintf(w, "# HELP partfeas_degraded_passthrough_total Replica write-refusals (WAL-degraded 503s) relayed to clients unchanged.\n")
	fmt.Fprintf(w, "# TYPE partfeas_degraded_passthrough_total counter\n")
	fmt.Fprintf(w, "partfeas_degraded_passthrough_total %d\n", st.DegradedPassthrough)
	c.local.Metrics().WritePrometheus(w)
}

// ---- lifecycle ----

// Listen binds the configured address (":0" picks an ephemeral port).
func (c *Coordinator) Listen() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", c.cfg.Addr, err)
	}
	c.ln = ln
	c.hs = &http.Server{Handler: c.handler}
	return nil
}

// Addr returns the bound address after Listen.
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return c.cfg.Addr
	}
	return c.ln.Addr().String()
}

// Serve blocks serving the bound listener.
func (c *Coordinator) Serve() error {
	if c.hs == nil {
		if err := c.Listen(); err != nil {
			return err
		}
	}
	c.logf("cluster: coordinator serving on %s (%d replica(s))", c.Addr(), c.ring.Size())
	return c.hs.Serve(c.ln)
}

// Close stops the health loop (and the HTTP server, if serving).
func (c *Coordinator) Close() error {
	select {
	case <-c.stopHC:
	default:
		close(c.stopHC)
	}
	<-c.hcDone
	if c.hs != nil {
		return c.hs.Close()
	}
	return nil
}

// Shutdown drains gracefully.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	select {
	case <-c.stopHC:
	default:
		close(c.stopHC)
	}
	<-c.hcDone
	var err error
	if c.hs != nil {
		err = c.hs.Shutdown(ctx)
	}
	return err
}
