// Package partfeas implements partitioned feasibility tests for
// implicit-deadline sporadic task systems on heterogeneous (uniform /
// related) multiprocessors, reproducing
//
//	Ahuja, Lu, Moseley: "Partitioned Feasibility Tests for Sporadic Tasks
//	on Heterogeneous Machines", IPDPS 2016.
//
// # The problem
//
// A sporadic task τ_i releases jobs at least P_i time units apart; each
// job needs up to C_i units of work and must finish within P_i of its
// release. The platform has m machines with speeds s_1 ≤ … ≤ s_m. A
// partitioned scheduler fixes each task to one machine. Deciding whether
// a partition exists is strongly NP-hard, so practical tests are
// approximate: an α-approximate feasibility test accepts whenever the
// adversary can schedule the task set on machines α× faster, and its
// rejection certifies the adversary fails at the original speeds.
//
// # The algorithm
//
// One greedy pass (the paper's §III): sort tasks by non-increasing
// utilization w_i = C_i/P_i, sort machines by non-decreasing speed, and
// first-fit each task onto the first machine whose single-machine test
// still passes at speed α·s — the exact utilization bound for EDF, the
// Liu–Layland bound for RMS. The Report carries the witness partition or
// the failing task.
//
// # The API
//
// Every feasibility question is asked about an Instance — the task set,
// the platform, and the per-machine scheduler — through context-first
// entry points:
//
//	in := partfeas.Instance{Tasks: ts, Platform: p, Scheduler: partfeas.EDF}
//	rep, err := partfeas.TestCtx(ctx, in, alpha)          // one test
//	a, ok, err := partfeas.MinAlphaCtx(ctx, in, lo, hi, tol) // smallest accepted α
//	res, traces, err := partfeas.SimulateCtx(ctx, in, opts)  // exact DES replay
//
// Instances are validated eagerly at every entry point: NewPlatform
// accepts any speeds by design, so a NaN, zero, or infinite speed is
// rejected here with the offending machine index named, before any
// solver is built. Test and MinAlpha are the context-free conveniences.
//
// Repeated queries on one instance — bisections, sensitivity sweeps,
// admission-control loops — should use a Tester, which precomputes the
// sort orders once and answers repeat queries without allocating;
// Tester.UpdateWCET re-tests a WCET change incrementally. A Tester is
// not safe for concurrent use. The HTTP server (cmd/serve, built on
// internal/service) answers each stateless query with a fresh TestCtx or
// MinAlphaCtx, so its responses are byte-identical to direct library
// calls. Long-lived admission loops are served by the
// incremental engine in internal/online, built with NewEngine and an
// Options struct whose Policy field selects the placement policy —
// first-fit over the paper's sorted order (the default, byte-identical
// to a fresh solve), or the arrival-order, best-fit, worst-fit and
// k-choices alternatives raced against each other by internal/arena
// and cmd/arena.
//
// Cancellation is cooperative with bounded latency everywhere: an
// expired or cancelled context surfaces as a PipelineError (check with
// IsCanceled), and AnalyzeCtx degrades to certified bounds on deadline
// expiry instead of failing.
//
// # The guarantees
//
// Four theorems, surfaced as TheoremI1 … TheoremI4 with their proved
// augmentation factors:
//
//	I.1  EDF vs partitioned optimum    α = 2
//	I.2  RMS vs partitioned optimum    α = 1/(√2−1) ≈ 2.414
//	I.3  EDF vs migratory (LP) bound   α = 2.98
//	I.4  RMS vs migratory (LP) bound   α = 3.34
//
// Both adversaries are implemented, not assumed: PartitionedMinScaling is
// an exact branch-and-bound and MigratoryMinScaling the closed-form LP
// bound, so the guarantees are checkable on any instance (see the E1–E12
// experiment suite under internal/experiments and EXPERIMENTS.md), and
// Analyze bundles the tests, adversary scalings and minimal-α
// measurement for one instance.
package partfeas
