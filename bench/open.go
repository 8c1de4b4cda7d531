package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"partfeas"
	"partfeas/internal/workload"
)

// tenants-open's two fixed arrival rates, in arrivals per second: ~25%
// and ~60% of the workload's closed-loop capacity (-calibrate) on a
// 2-vCPU VM. They are constants so every commit is offered the same load.
const (
	loRate = 2000.0
	hiRate = 4700.0
)

// follow is what an arrival does after its first request.
type follow int8

const (
	fNone           follow = iota
	fRemoveAdmitted        // DELETE the admitted task (index n_tasks-1 from the response)
	fRestore               // send the prebuilt WCET restore
	fRemoveBatch           // DELETE every admitted batch task, top index first
)

// arrival is one scheduled tenant operation.
type arrival struct {
	due     int64 // ns after the round's start
	ticket  int32 // per-session order among mutating arrivals; -1 when unordered
	first   *call
	then    follow
	restore *call
}

// openRound is one round of the schedule; round -1 is the warm-up.
type openRound struct {
	round    int8
	rate     float64
	dur      time.Duration
	traced   bool
	arrivals []arrival
}

// tenantKinds is the session population in 64ths: 40 sorted implicit,
// 8 best_fit implicit, 16 constrained-deadline sessions.
const (
	tenantSorted = iota
	tenantBestFit
	tenantConstrained
)

// tenantLayout fixes which sessions are which kind, their sizes
// (stratified quantiles of a bounded Pareto on [20, maxN]) and which
// session each Zipf rank addresses. It does not depend on the run seed,
// so every seed offers the same mix of hot and cold, large and small
// sessions and the seed varies only the samples drawn within it.
func tenantLayout(n, maxN int) (kinds, sizes, byRank []int) {
	rng := rand.New(rand.NewSource(0x7e4a))
	kinds = make([]int, n)
	for i := range kinds {
		switch {
		case i < n*40/64:
			kinds[i] = tenantSorted
		case i < n*48/64:
			kinds[i] = tenantBestFit
		default:
			kinds[i] = tenantConstrained
		}
	}
	const alpha, lo = 1.1, 20.0
	hi := float64(maxN)
	sizes = make([]int, n)
	for i := range sizes {
		u := (float64(i) + 0.5) / float64(n)
		x := lo / math.Pow(1-u*(1-math.Pow(lo/hi, alpha)), 1/alpha)
		sizes[i] = int(math.Round(x))
	}
	// Constrained sessions take the smallest sizes: on a session of a few
	// hundred constrained tasks a remove or WCET update replays the DBF
	// tiers for ~0.5 s, and those few ops would set the workload's whole
	// tail and capacity.
	nc := n - n*48/64
	small, rest := sizes[:nc], sizes[nc:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	sizes = append(append([]int(nil), rest...), small...)
	byRank = rng.Perm(n)
	return kinds, sizes, byRank
}

// tenantSpecs draws the sessions' task sets from the run seed: m=16
// machines with speeds in [0.3, 0.95] (so a task of utilization 1 is
// rejected by every machine), loaded to ~40%.
func tenantSpecs(rng *rand.Rand, n, maxN int) ([]*sessionSpec, error) {
	kinds, sizes, _ := tenantLayout(n, maxN)
	specs := make([]*sessionSpec, n)
	for i := range specs {
		s := loadedSpec(rng, "tenant-"+strconv.Itoa(i), 16, sizes[i], 0.3, 0.95)
		switch kinds[i] {
		case tenantBestFit:
			s.placement = "best_fit"
		case tenantConstrained:
			s.dls = make([]int64, len(s.tasks))
			for j, t := range s.tasks {
				s.dls[j] = min(max(int64(float64(t.Period)*(0.6+0.4*rng.Float64())), t.WCET), t.Period)
			}
		}
		// Sessions must open feasible; shrink WCETs until the engine
		// accepts the initial set (rarely needed at 40% load).
		for try := 0; ; try++ {
			if _, err := s.engine(); err == nil {
				break
			} else if try == 20 {
				return nil, err
			}
			for j := range s.tasks {
				s.tasks[j].WCET = max(1, s.tasks[j].WCET*9/10)
			}
		}
		specs[i] = s
	}
	return specs, nil
}

// randInstance draws one UUniFast instance: n tasks, m machines with
// speeds in [0.5, 2.5], total utilization load × total speed, periods
// log-uniform in [10, 1000].
func randInstance(rng *workload.RNG, nLo, nHi, mLo, mHi int, loadLo, loadHi float64) (partfeas.TaskSet, []float64) {
	n := nLo + rng.Intn(nHi-nLo+1)
	m := mLo + rng.Intn(mHi-mLo+1)
	speeds := make([]float64, m)
	var total float64
	for j := range speeds {
		speeds[j] = rng.Range(0.5, 2.5)
		total += speeds[j]
	}
	us, err := workload.UUniFast(rng, n, rng.Range(loadLo, loadHi)*total)
	if err != nil {
		panic(err) // n ≥ 1 and a positive total always succeed
	}
	ts := make(partfeas.TaskSet, n)
	for i, u := range us {
		per, err := workload.LogUniformPeriod(rng, 10, 1000)
		if err != nil {
			panic(err)
		}
		ts[i] = partfeas.Task{WCET: max(1, int64(math.Round(u*float64(per)))), Period: per}
	}
	return ts, speeds
}

// tenantMix is an arrival's operation in percent.
var tenantMix = []struct {
	k      kind
	weight int
}{{kGet, 15}, {kTest, 15}, {kRepart, 5}, {kForce, 3}, {kTail, 25}, {kInterior, 12}, {kReject, 10}, {kWCET, 10}, {kBatch, 5}}

// tenantSchedule draws the whole run's arrivals from the seed before any
// timing starts: Poisson arrivals per round, each addressing a session by
// Zipf(1.1) rank or the stateless test endpoint (80% from a working set
// of testSet instances, 20% fresh).
func tenantSchedule(seed int64, specs []*sessionSpec, byRank []int, testSet int, plan []openRound) []openRound {
	rng := rand.New(rand.NewSource(seed ^ 0x0be11))
	irng := workload.NewRNG(uint64(seed) ^ 0x7e57)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(specs)-1))
	working := make([]*call, testSet)
	for i := range working {
		working[i] = testCall(randInstance(irng, 8, 32, 4, 8, 0.3, 0.9))
	}
	drawers := make([]drawer, len(specs))
	for i, s := range specs {
		drawers[i] = newDrawer(s)
	}
	tickets := make([]int32, len(specs))
	for r := range plan {
		rd := &plan[r]
		var t float64
		end := rd.dur.Seconds()
		for {
			t += rng.ExpFloat64() / rd.rate
			if t >= end {
				break
			}
			a := arrival{due: int64(t * 1e9), ticket: -1}
			w := rng.Intn(100)
			k := tenantMix[len(tenantMix)-1].k
			for _, m := range tenantMix {
				if w < m.weight {
					k = m.k
					break
				}
				w -= m.weight
			}
			if k == kTest {
				if rng.Intn(5) == 0 {
					a.first = testCall(randInstance(irng, 8, 32, 4, 8, 0.3, 0.9))
				} else {
					a.first = working[rng.Intn(len(working))]
				}
				rd.arrivals = append(rd.arrivals, a)
				continue
			}
			sess := byRank[zipf.Uint64()]
			s, d := specs[sess], drawers[sess]
			if s.dls != nil && k == kRepart {
				k = kGet // constrained sessions refuse repartition
			}
			if s.dls != nil && k == kForce {
				k = kTail // and force
			}
			switch k {
			case kGet:
				a.first = getCall(s, sess)
			case kRepart:
				a.first = repartCall(s, sess)
			case kReject:
				t, dl := d.reject(rng)
				a.first = admitCall(s, sess, kReject, t, dl, false)
			case kTail, kInterior, kForce:
				var t partfeas.Task
				var dl int64
				switch k {
				case kTail:
					t, dl = d.tail(rng)
				case kInterior:
					t, dl = d.interior(rng)
				default:
					t, dl = d.reject(rng)
				}
				a.first = admitCall(s, sess, k, t, dl, k == kForce)
				a.then = fRemoveAdmitted
			case kWCET:
				i := rng.Intn(len(s.tasks))
				w := s.tasks[i].WCET
				nw := w + max(1, int64(float64(w)*(0.2+0.8*rng.Float64())))
				if s.dls != nil {
					nw = min(nw, s.dls[i]) // constrained tasks keep C ≤ D
				}
				a.first = wcetCall(s, sess, i, nw)
				a.then, a.restore = fRestore, wcetCall(s, sess, i, w)
			case kBatch:
				ts := make([]partfeas.Task, 8)
				dls := make([]int64, len(ts))
				for i := range ts {
					if rng.Intn(2) == 0 {
						ts[i], dls[i] = d.tail(rng)
					} else {
						ts[i], dls[i] = d.interior(rng)
					}
				}
				a.first = batchCall(s, sess, ts, dls)
				a.then = fRemoveBatch
			}
			// Mutations of one session run in schedule order, one at a
			// time: the removes address tasks by index. Rejected admits
			// and reads change nothing and run concurrently with them.
			if a.then != fNone {
				a.ticket = tickets[sess]
				tickets[sess]++
			}
			rd.arrivals = append(rd.arrivals, a)
		}
	}
	return plan
}

// scheduleDigest hashes everything the schedule would send, for the
// determinism test.
func scheduleDigest(plan []openRound) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(c *call) {
		if c == nil {
			return
		}
		h.Write([]byte(c.method + " " + c.path))
		h.Write(c.body)
	}
	for _, rd := range plan {
		for _, a := range rd.arrivals {
			binary.LittleEndian.PutUint64(b[:], uint64(a.due))
			h.Write(b[:])
			binary.LittleEndian.PutUint32(b[:4], uint32(a.ticket))
			h.Write(b[:4])
			h.Write([]byte{byte(a.then)})
			put(a.first)
			put(a.restore)
		}
	}
	return h.Sum64()
}

// turn serializes one session's mutating arrivals in ticket order.
type turn struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int32
}

func newTurn() *turn {
	t := &turn{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *turn) wait(ticket int32) {
	t.mu.Lock()
	for t.next != ticket {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turn) done() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// openDriver sends a schedule over the connections, one arrival per
// connection at a time.
type openDriver struct {
	cfg        *config
	conns      []*conn
	specs      []*sessionSpec
	turns      []*turn
	m          *measured
	backlogMax atomic.Int64
	unsent     atomic.Int64 // arrivals still unsent when their round ended
}

// dropAfter is how long after a round's last due time an arrival may
// still start; one not started by then counts as failed.
const dropAfter = 250 * time.Millisecond

func (d *openDriver) run(tr *tracer, rd *openRound) {
	start := tr.now() + int64(time.Millisecond)
	cutoff := start + int64(rd.dur+dropAfter)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range d.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(rd.arrivals) {
					return
				}
				a := &rd.arrivals[j]
				due := start + a.due
				waitUntil(tr, due)
				now := tr.now()
				waiting := sort.Search(len(rd.arrivals), func(x int) bool { return start+rd.arrivals[x].due > now }) - j - 1
				for b := d.backlogMax.Load(); int64(waiting) > b && !d.backlogMax.CompareAndSwap(b, int64(waiting)); b = d.backlogMax.Load() {
				}
				if a.ticket >= 0 {
					d.turns[a.first.sess].wait(a.ticket)
				}
				if tr.now() > cutoff {
					if rd.round >= 0 {
						d.unsent.Add(1)
					}
				} else {
					d.exec(i, tr, rd, a, due)
				}
				if a.ticket >= 0 {
					d.turns[a.first.sess].done()
				}
			}
		}(i)
	}
	wg.Wait()
}

// exec sends an arrival's first request, timed from its due time, then
// its follow-ups, each timed from its own send.
func (d *openDriver) exec(i int, tr *tracer, rd *openRound, a *arrival, due int64) {
	c := d.conns[i]
	r := c.send(a.first, tr, rd.traced, nil, due, rd.round)
	r.lead = true
	d.m.record(d.cfg, i, r)
	if r.failed {
		return
	}
	sess := a.first.sess
	var followUps []*call
	switch a.then {
	case fRemoveAdmitted:
		if r.got.admitted == 1 {
			followUps = append(followUps, removeCall(d.specs[sess], sess, int(r.got.nTasks)-1, a.first.kind == kForce))
		}
	case fRestore:
		followUps = append(followUps, a.restore)
	case fRemoveBatch:
		for j := 0; j < bits.OnesCount16(r.got.mask); j++ {
			followUps = append(followUps, removeCall(d.specs[sess], sess, int(r.got.nTasks)-1-j, false))
		}
	}
	for _, cl := range followUps {
		fr := c.send(cl, tr, rd.traced, nil, 0, rd.round)
		d.m.record(d.cfg, i, fr)
		if fr.failed {
			return
		}
	}
}

// waitUntil returns at the due time without time.Sleep's ~1 ms
// overshoot on short sleeps (the Go runtime's timers round them up to
// the next millisecond here, which is what makes a sleep-paced
// generator useless below 1 ms): it sleeps coarsely, then with
// nanosleep (~60 µs overshoot), then yields until the due time.
func waitUntil(tr *tracer, due int64) {
	for {
		d := due - tr.now()
		switch {
		case d <= 0:
			return
		case d > 2_000_000:
			time.Sleep(time.Duration(d - 1_500_000))
		case d > 100_000:
			ts := syscall.NsecToTimespec(d - 70_000)
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		default:
			runtime.Gosched()
		}
	}
}
