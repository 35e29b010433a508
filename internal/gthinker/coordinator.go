package gthinker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"gthinkerqc/internal/obs"
)

// ControlPlane is how a cluster's machines are reached: one entry per
// machine, addressed by machine id. It is the ONLY channel through
// which a job is started, scheduled, and ended — the
// coordinator never reads another machine's memory. Implementations:
// directControl (method calls on WorkerHosts living in this process)
// and ClusterClient (framed TCP ops against per-machine control
// servers, in this process or in qcworker processes). Every job-scoped
// call after Run addresses the job Run named.
type ControlPlane interface {
	// Machines returns the cluster size.
	Machines() int
	// Run resets machine m onto job `job`, running the application its
	// host makes of spec, and starts mining.
	Run(m int, job uint64, spec []byte) error
	// Status returns machine m's liveness report.
	Status(m int) (MachineStatus, error)
	// Steal directs machine donor to ship up to want big tasks to
	// machine recv, returning the number actually moved.
	Steal(donor, recv, want int) (int, error)
	// Recover delivers a dead-machine directive to surviving machine
	// m: install the fetch fallback, re-own task batches shipped to
	// the dead machine, and (on the adopter) take over the dead
	// machine's root-task partitions.
	Recover(m int, d RecoverDirective) error
	// Shutdown stops machine m's workers, joins them, and returns the
	// machine's report: the failure its job recorded, if any, beside
	// its metrics, spans and result frame. Idempotent.
	Shutdown(m int) (*MachineReport, error)
}

// RecoverDirective tells a survivor how to absorb a dead machine. The
// same directive goes to every survivor; only the designated adopter
// additionally respawns the dead machine's root-task partitions
// (Adopt lists hash-partition ids — original machine ids — which,
// with the graph size and cluster size every runtime already knows,
// deterministically regenerate the lost root ranges).
type RecoverDirective struct {
	Dead     int   // the machine declared dead
	Fallback int   // survivor that now serves Dead's adjacency rows
	Adopter  int   // survivor that respawns Dead's root partitions
	Adopt    []int // hash-partition ids Adopter takes over
}

// ErrMachineLost is the sentinel matched by errors.Is against the
// typed error a run returns when a machine is declared dead and
// recovery is impossible (no survivors, or a survivor refused the
// recovery directive).
var ErrMachineLost = errors.New("gthinker: machine lost")

// MachineLostError reports a machine declared dead after
// Config.DeadAfterPolls consecutive failed status polls.
type MachineLostError struct {
	Machine int
	Polls   int
	Err     error // the last poll failure
}

func (e *MachineLostError) Error() string {
	return fmt.Sprintf("gthinker: lost machine %d after %d failed status polls: %v",
		e.Machine, e.Polls, e.Err)
}

func (e *MachineLostError) Unwrap() error { return e.Err }

func (e *MachineLostError) Is(target error) bool { return target == ErrMachineLost }

// directControl is the ControlPlane over machines living in this
// process and reached without sockets: every call is the WorkerHost
// handler a control server would have dispatched to, invoked as a
// method. A steal directive runs on the donor like any other, and its
// batch travels through the donor's loopback Transport.
type directControl struct {
	hosts []*WorkerHost
	job   uint64 // set by Run, before the coordinator's goroutines exist
}

func (dc *directControl) Machines() int { return len(dc.hosts) }

func (dc *directControl) Run(m int, job uint64, spec []byte) error {
	dc.job = job
	return dc.hosts[m].handleRun(job, spec)
}

func (dc *directControl) Status(m int) (MachineStatus, error) {
	return dc.hosts[m].handleStatus(dc.job)
}

func (dc *directControl) Steal(donor, recv, want int) (int, error) {
	return dc.hosts[donor].handleSteal(dc.job, recv, want)
}

func (dc *directControl) Recover(m int, d RecoverDirective) error {
	return dc.hosts[m].handleRecover(d)
}

func (dc *directControl) Shutdown(m int) (*MachineReport, error) {
	return dc.hosts[m].handleShutdown(dc.job)
}

// coordinatorStats is what a coordinator leaves behind after one run.
type coordinatorStats struct {
	// Counters holds the coordinator-owned rows of the counter table
	// (steals, steal errors, recoveries, dead machines); every other
	// row is zero.
	Counters
	// Dead marks, per machine, whether it was declared dead — callers
	// collecting results or exits must skip those machines. Nil when
	// nothing died.
	Dead []bool
	// Trace holds the coordinator's own span timeline (recovery events,
	// steal rounds) when Config.Trace is set; nil otherwise. Callers
	// merge it with the per-machine snapshots for the cluster-wide
	// timeline.
	Trace *obs.Trace
}

// coordinator runs cluster-wide scheduling over a ControlPlane:
// termination detection (two consecutive status scans must agree that
// everything is spawned, nothing is alive, and no transfer moved in
// between) and the task-stealing master (Section 5), which plans one
// round of steals from every complete scan (planSteals).
type coordinator struct {
	ctl ControlPlane
	cfg Config

	// counts holds the coordinator-owned rows of the counter table.
	counts Counters

	// Durable per-machine state for worker-loss recovery, maintained
	// from status polls: liveness, consecutive poll-failure counts, and
	// the hash-partition segments each live machine currently owns
	// (initially its own id; a dead machine's segments transfer
	// wholesale to one adopter, transitively across multiple losses).
	alive     []bool
	failPolls []int
	segs      [][]int

	// lv is the continuously-updated observability view fed from every
	// status poll; tracer (non-nil only with Config.Trace) records the
	// coordinator's own scheduling spans on pid -1 / track 0.
	lv     *LiveView
	tracer *obs.Tracer
}

func newCoordinator(ctl ControlPlane, cfg Config) *coordinator {
	n := ctl.Machines()
	c := &coordinator{
		ctl:       ctl,
		cfg:       cfg,
		alive:     make([]bool, n),
		failPolls: make([]int, n),
		segs:      make([][]int, n),
	}
	for m := 0; m < n; m++ {
		c.alive[m] = true
		c.segs[m] = []int{m}
	}
	c.lv = NewLiveView(n)
	if cfg.Trace {
		c.tracer = obs.NewTracer(-1, []int32{-1}, 0)
	}
	return c
}

func (c *coordinator) stats() coordinatorStats {
	s := coordinatorStats{Counters: c.counts}
	for m, a := range c.alive {
		if !a {
			if s.Dead == nil {
				s.Dead = make([]bool, len(c.alive))
			}
			s.Dead[m] = true
		}
	}
	if c.tracer != nil {
		s.Trace = c.tracer.Snapshot()
	}
	return s
}

// run drives the started job to completion: it polls, steals, and
// detects termination (or failure, or cancellation). The returned
// error is nil only for a clean termination. The debug HTTP server,
// when configured, lives exactly as long as the loop.
func (c *coordinator) run(ctx context.Context) error {
	stopObs, err := c.startObs()
	if err != nil {
		return err
	}
	defer stopObs()
	return c.loop(ctx)
}

// shutdown stops every machine still alive (a dead one cannot answer),
// all at once, since each builds its result frame while answering, and
// returns their reports in machine order, nil for a machine that is
// dead or did not answer, with the first failure in machine order.
func (c *coordinator) shutdown() ([]*MachineReport, error) {
	reps := make([]*MachineReport, c.ctl.Machines())
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for m := range reps {
		if !c.alive[m] {
			continue
		}
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			reps[m], errs[m] = c.ctl.Shutdown(m)
			if errs[m] == nil && reps[m].Failure != "" {
				errs[m] = fmt.Errorf("gthinker: machine %d failed: %s", m, reps[m].Failure)
			}
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// startObs brings up the coordinator's debug HTTP server on DebugAddr
// (live /metrics from the status-poll view, /healthz, expvar, pprof).
// The returned stop function tears it down; it is safe to call when
// nothing was started.
func (c *coordinator) startObs() (func(), error) {
	var ds *obs.DebugServer
	if c.cfg.DebugAddr != "" {
		var err error
		ds, err = obs.StartDebugServer(c.cfg.DebugAddr)
		if err != nil {
			return nil, err
		}
		ds.AddSource(c.lv.Samples)
		fmt.Fprintf(os.Stderr, "gthinker: debug server listening on http://%s\n", ds.Addr())
	}
	return func() {
		if ds != nil {
			ds.Close()
		}
	}, nil
}

// loop scans the machines back to back. Pacing comes from the
// machines, not from a ticker: a busy machine holds its status reply
// for up to StatusInterval and releases it the instant it goes
// quiescent or fails (MachineRuntime.awaitQuiet), so a scan of a
// working cluster takes one interval, and the scan in which the last
// task finishes returns at that moment. The confirming scan follows at
// once — every machine is quiescent and answers immediately — so the
// termination tail is two round trips, not two ticks. Every complete
// scan that does not confirm termination runs one steal round.
func (c *coordinator) loop(ctx context.Context) error {
	var prev []MachineStatus
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		sts, complete, err := c.scan()
		if err != nil {
			return err
		}
		switch {
		case !complete:
			// A machine missed a poll (or was just recovered): no
			// termination or steal decision on a partial view.
			prev = nil
		case c.terminated(prev, sts):
			return nil
		case c.steal(sts):
			// Queues moved, or a transfer failed half-way and was
			// tolerated: the scan is stale and the termination window
			// restarts.
			prev = nil
		default:
			// A round that moved nothing leaves the window open (a
			// transfer would show in the counters terminated compares
			// anyway).
			prev = sts
		}
		if prev != nil && c.quiescent(prev) {
			continue // the confirming scan, taken immediately
		}
		// Machines at work held their replies, so the interval has
		// passed already. The timer only paces a scan that came back
		// early with nothing to confirm: a failed poll — StatusInterval
		// is the failure-detection heartbeat — or a control plane that
		// does not hold.
		if d := c.cfg.StatusInterval - time.Since(start); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
	}
}

// quiescent reports that every live machine of a complete scan is
// quiescent.
func (c *coordinator) quiescent(sts []MachineStatus) bool {
	for i, st := range sts {
		if c.alive[i] && !st.quiescent() {
			return false
		}
	}
	return true
}

// scan polls every live machine once — concurrently, so the scan
// takes as long as its slowest reply rather than the sum of them (a
// busy machine holds its reply for up to StatusInterval, and with a
// dying machine holding its frame-timeout window a sequential scan of
// N machines would stall termination detection N times as long). Each
// poll is bounded by the control transport's frame deadline, so the
// fan-in wait is bounded too. Poll results are then folded in
// serially, machine order, preserving the original bookkeeping: a
// failed poll increments that machine's consecutive-failure count —
// transient drops are already retried once inside the control
// transport, so DeadAfterPolls consecutive failures declare the
// machine dead and trigger recovery. A machine-REPORTED failure still aborts: the machine
// is reachable and says its app failed, which re-mining would only
// repeat. The second return is false when any live machine missed
// this scan (the view is partial).
func (c *coordinator) scan() ([]MachineStatus, bool, error) {
	n := c.ctl.Machines()
	sts := make([]MachineStatus, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for m := 0; m < n; m++ {
		if !c.alive[m] {
			continue
		}
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			sts[m], errs[m] = c.ctl.Status(m)
		}(m)
	}
	wg.Wait()
	complete := true
	for m := 0; m < n; m++ {
		if !c.alive[m] {
			continue
		}
		if err := errs[m]; err != nil {
			complete = false
			sts[m] = MachineStatus{}
			c.failPolls[m]++
			if c.failPolls[m] >= c.cfg.DeadAfterPolls {
				if rerr := c.recoverMachine(m, err); rerr != nil {
					return nil, false, rerr
				}
			}
			continue
		}
		c.failPolls[m] = 0
		st := sts[m]
		if st.Failure != "" {
			return nil, false, fmt.Errorf("gthinker: machine %d failed: %s", m, st.Failure)
		}
		c.lv.Observe(m, st)
		if c.cfg.statusHook != nil {
			c.cfg.statusHook(m, st)
		}
	}
	c.lv.ObserveCoordinator(c.counts)
	return sts, complete, nil
}

// recoverMachine declares m dead and redistributes its work: one
// survivor (the adopter) takes over m's hash-partition segments —
// respawning every root task of those partitions, because results
// only leave a machine in its shutdown report, so everything m had
// mined was lost with it and the fingerprint-deduplicating collector
// makes re-mining exact rather than duplicating — and every survivor
// redirects its adjacency fetches for m to the fallback machine and
// re-owns any task batches it had shipped to m (the retained GQS1
// bytes cover subtrees stolen INTO m from still-live roots, which no
// partition respawn would regenerate).
func (c *coordinator) recoverMachine(m int, cause error) error {
	lost := &MachineLostError{Machine: m, Polls: c.failPolls[m], Err: cause}
	var rstart time.Time
	if c.tracer != nil {
		rstart = time.Now()
	}
	c.alive[m] = false
	c.counts.DeadMachines++
	c.lv.ObserveDead(m)
	var survivors []int
	for i, a := range c.alive {
		if a {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		lost.Err = fmt.Errorf("no survivors to recover onto: %w", cause)
		return lost
	}
	adopter := survivors[m%len(survivors)]
	d := RecoverDirective{Dead: m, Fallback: adopter, Adopter: adopter, Adopt: c.segs[m]}
	c.segs[adopter] = append(c.segs[adopter], c.segs[m]...)
	c.segs[m] = nil
	for _, s := range survivors {
		if err := c.ctl.Recover(s, d); err != nil {
			// A survivor that cannot absorb the directive would keep
			// failing fetches against the dead machine; abort typed
			// rather than let the cluster limp into an app failure.
			lost.Err = fmt.Errorf("recovery directive to machine %d: %w", s, err)
			return lost
		}
	}
	c.counts.Recoveries++
	if c.tracer != nil {
		c.tracer.Record(0, obs.KindRecover, rstart, time.Since(rstart), uint64(m), 0)
	}
	return nil
}

// terminated reports whether two consecutive scans prove the job done.
// One idle scan is not enough, however promptly it arrives: machine A
// can be read before a task is stolen into it and machine B after
// donating it, summing to zero while the task lives on. Any completed
// transfer bumps a monotone sentOut/recvIn counter, so two scans that
// BOTH read all-spawned and zero live, with identical transfer
// counters, bracket a window in which no task existed anywhere. Dead
// machines are excluded: their adopted work is accounted by the
// survivors spawning it.
func (c *coordinator) terminated(prev, cur []MachineStatus) bool {
	if prev == nil || !c.quiescent(prev) || !c.quiescent(cur) {
		return false
	}
	for i := range cur {
		if c.alive[i] && (cur[i].SentOut != prev[i].SentOut || cur[i].RecvIn != prev[i].RecvIn) {
			return false
		}
	}
	return true
}

// stealDirective is one move of a steal plan: ship up to want big
// tasks from machine donor to machine recv.
type stealDirective struct{ donor, recv, want int }

// planSteals is the master's one steal rule, a pure function of one
// complete scan. Each live machine's load is its big-task backlog,
// less one if it is quiescent: an idle machine counts as -1, so a
// single task queued behind a busy donor (load 1) is worth moving to
// it, while the same task beside a busy peer (load 0) is not. The most
// and least loaded machines pair up; a gap of at least two moves half
// of it, bounded by the donor's backlog and by batch (C). Both leave
// the pool and the next extremes pair, so each machine takes part in
// at most one directive per scan. Dead machines are neither donors
// nor receivers.
func planSteals(sts []MachineStatus, alive []bool, batch int) []stealDirective {
	load := func(m int) int64 {
		if sts[m].quiescent() {
			return sts[m].BigPending - 1
		}
		return sts[m].BigPending
	}
	var pool []int
	for m := range sts {
		if alive[m] {
			pool = append(pool, m)
		}
	}
	sort.SliceStable(pool, func(a, b int) bool { return load(pool[a]) > load(pool[b]) })
	var plan []stealDirective
	for i, j := 0, len(pool)-1; i < j; i, j = i+1, j-1 {
		donor, recv := pool[i], pool[j]
		gap := load(donor) - load(recv)
		if gap < 2 {
			break
		}
		want := min(gap/2, sts[donor].BigPending, int64(batch))
		plan = append(plan, stealDirective{donor: donor, recv: recv, want: int(want)})
	}
	return plan
}

// steal runs one steal round: it plans from the scan and executes
// every directive. It reports whether the scan went stale — tasks
// moved, or a directive failed. A failed directive is tolerated (the
// donor or receiver may be mid-death; the poll loop will declare it
// and recover) and the round's other directives still run.
func (c *coordinator) steal(sts []MachineStatus) (stale bool) {
	plan := planSteals(sts, c.alive, c.cfg.BatchSize)
	if len(plan) == 0 {
		return false
	}
	var sstart time.Time
	if c.tracer != nil {
		sstart = time.Now()
	}
	moved := 0
	for _, d := range plan {
		n, err := c.ctl.Steal(d.donor, d.recv, d.want)
		if err != nil {
			c.counts.StealErrors++
			stale = true
			continue
		}
		moved += n
	}
	if moved > 0 {
		c.counts.TasksStolen += uint64(moved)
		c.counts.StealRounds++
		if c.tracer != nil {
			c.tracer.Record(0, obs.KindSteal, sstart, time.Since(sstart), uint64(moved), uint64(len(plan)))
		}
	}
	return stale || moved > 0
}
