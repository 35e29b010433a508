package gthinker

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// slowControl is a ControlPlane whose every status poll sleeps for a
// fixed delay — the scan-latency fixture. Machines listed in fail
// answer polls with an error instead (after the same delay). The
// embedded nil interface stands in for the job-start call the
// coordinator never makes.
type slowControl struct {
	ControlPlane
	n     int
	delay time.Duration
	fail  map[int]bool
	polls atomic.Int64
}

func (s *slowControl) Machines() int { return s.n }

func (s *slowControl) Status(m int) (MachineStatus, error) {
	s.polls.Add(1)
	time.Sleep(s.delay)
	if s.fail[m] {
		return MachineStatus{}, fmt.Errorf("machine %d unreachable", m)
	}
	return MachineStatus{Spawned: 1, AllSpawned: true}, nil
}

func (s *slowControl) Steal(donor, recv, want int) (int, error) { return 0, nil }
func (s *slowControl) Recover(m int, d RecoverDirective) error  { return nil }
func (s *slowControl) Shutdown(m int) (*MachineReport, error) {
	return &MachineReport{Metrics: &Metrics{}}, nil
}

// TestScanPollsConcurrently pins the coordinator's status scan to
// concurrent fan-out: 8 machines × 10 ms per poll must complete in
// roughly one poll's latency, not eight (a sequential scan would need
// ≥ 80 ms; the bound leaves generous scheduler headroom below that).
func TestScanPollsConcurrently(t *testing.T) {
	sc := &slowControl{n: 8, delay: 10 * time.Millisecond}
	c := newCoordinator(sc, Config{Machines: 8}.withDefaults())
	start := time.Now()
	sts, complete, err := c.scan()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !complete {
		t.Fatal("scan reported a partial view with every poll succeeding")
	}
	if got := sc.polls.Load(); got != 8 {
		t.Fatalf("polled %d machines, want 8", got)
	}
	for m, st := range sts {
		if !st.AllSpawned {
			t.Fatalf("machine %d status not recorded: %+v", m, st)
		}
	}
	if elapsed >= 60*time.Millisecond {
		t.Fatalf("8 polls of 10ms took %v — scan is sequential, want concurrent (< 60ms)", elapsed)
	}
}

// TestScanSkipsDeadAndToleratesFailures checks the fold-in semantics
// the concurrent rewrite must preserve: dead machines are not polled
// at all, and one machine failing its poll yields a partial view
// (complete=false, failure count bumped) while every other machine's
// status is still recorded.
func TestScanSkipsDeadAndToleratesFailures(t *testing.T) {
	sc := &slowControl{n: 4, fail: map[int]bool{2: true}}
	c := newCoordinator(sc, Config{Machines: 4}.withDefaults())
	c.alive[1] = false

	sts, complete, err := c.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if complete {
		t.Fatal("scan reported a complete view despite machine 2 failing its poll")
	}
	if got := sc.polls.Load(); got != 3 {
		t.Fatalf("polled %d machines, want 3 (machine 1 is dead)", got)
	}
	if c.failPolls[2] != 1 {
		t.Fatalf("failPolls[2] = %d, want 1", c.failPolls[2])
	}
	for _, m := range []int{0, 3} {
		if !sts[m].AllSpawned {
			t.Fatalf("machine %d status not recorded: %+v", m, sts[m])
		}
	}
	for _, m := range []int{1, 2} {
		if sts[m].AllSpawned {
			t.Fatalf("machine %d should have a zero status, got %+v", m, sts[m])
		}
	}
}

// TestTerminationNotStarvedBySteals: every complete status scan that
// does not confirm termination runs a steal round. An idle round must
// not restart the two-scan termination window, or an idle cluster is
// never declared done.
func TestTerminationNotStarvedBySteals(t *testing.T) {
	sc := &slowControl{n: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := runCoordinator(ctx, sc, Config{
		Machines: 3, WorkersPerMachine: 1,
		StatusInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("idle cluster not declared terminated: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("termination of an idle cluster took %v", elapsed)
	}
}
