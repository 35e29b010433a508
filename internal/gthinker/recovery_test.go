package gthinker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeControl is a scripted ControlPlane for coordinator unit tests:
// statusFn decides each machine's poll outcome from its 1-based call
// count, and every Recover directive is recorded. The embedded nil
// interface stands in for the job-start call the coordinator never
// makes.
type fakeControl struct {
	ControlPlane
	n        int
	statusFn func(m, call int) (MachineStatus, error)

	mu       sync.Mutex
	calls    []int
	recovers map[int][]RecoverDirective
	shutdown []bool
}

func newFakeControl(n int, statusFn func(m, call int) (MachineStatus, error)) *fakeControl {
	return &fakeControl{
		n: n, statusFn: statusFn,
		calls:    make([]int, n),
		recovers: map[int][]RecoverDirective{},
		shutdown: make([]bool, n),
	}
}

func (f *fakeControl) Machines() int { return f.n }

func (f *fakeControl) Status(m int) (MachineStatus, error) {
	f.mu.Lock()
	f.calls[m]++
	call := f.calls[m]
	f.mu.Unlock()
	return f.statusFn(m, call)
}

func (f *fakeControl) Steal(donor, recv, want int) (int, error) { return 0, nil }

func (f *fakeControl) Recover(m int, d RecoverDirective) error {
	f.mu.Lock()
	f.recovers[m] = append(f.recovers[m], d)
	f.mu.Unlock()
	return nil
}

func (f *fakeControl) Shutdown(m int) (*MachineReport, error) {
	f.mu.Lock()
	f.shutdown[m] = true
	f.mu.Unlock()
	return &MachineReport{Metrics: &Metrics{}}, nil
}

// idleStatus is a terminated machine's report.
func idleStatus() (MachineStatus, error) {
	return MachineStatus{AllSpawned: true, Spawned: 1}, nil
}

func recoveryTestConfig() Config {
	return Config{
		Machines: 3, WorkersPerMachine: 1,
		StatusInterval: time.Millisecond,
		DeadAfterPolls: 3,
	}
}

// TestCoordinatorRecoversLostMachine: a machine whose polls fail
// DeadAfterPolls times in a row is declared dead, every survivor gets
// the recovery directive naming one adopter, and the run completes
// cleanly on the survivors.
func TestCoordinatorRecoversLostMachine(t *testing.T) {
	fake := newFakeControl(3, func(m, call int) (MachineStatus, error) {
		if m == 1 {
			if call == 1 {
				return MachineStatus{Live: 1, Spawned: 1}, nil
			}
			return MachineStatus{}, fmt.Errorf("connection refused")
		}
		return idleStatus()
	})
	stats, err := runCoordinator(context.Background(), fake, recoveryTestConfig())
	if err != nil {
		t.Fatalf("run did not survive the machine loss: %v", err)
	}
	if stats.Recoveries != 1 || stats.DeadMachines != 1 {
		t.Fatalf("want one recovery of one dead machine, got %+v", stats)
	}
	if len(stats.Dead) != 3 || stats.Dead[0] || !stats.Dead[1] || stats.Dead[2] {
		t.Fatalf("wrong dead mask: %v", stats.Dead)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	// Survivors are {0, 2}; the adopter for dead machine 1 is
	// survivors[1%2] = 2, and BOTH survivors get the directive.
	for _, s := range []int{0, 2} {
		ds := fake.recovers[s]
		if len(ds) != 1 {
			t.Fatalf("survivor %d got %d directives, want 1", s, len(ds))
		}
		d := ds[0]
		if d.Dead != 1 || d.Adopter != 2 || d.Fallback != 2 || len(d.Adopt) != 1 || d.Adopt[0] != 1 {
			t.Fatalf("survivor %d got wrong directive: %+v", s, d)
		}
	}
	if len(fake.recovers[1]) != 0 {
		t.Fatal("the dead machine received a recovery directive")
	}
	if fake.shutdown[1] {
		t.Fatal("coordinator tried to shut down the dead machine")
	}
	if !fake.shutdown[0] || !fake.shutdown[2] {
		t.Fatal("survivors were not shut down")
	}
}

// TestCoordinatorToleratesTransientPollFailures is the fails-before
// regression for the pre-recovery behavior: a status poll that fails
// fewer than DeadAfterPolls times in a row used to abort the whole run
// on the FIRST error; now the coordinator rides it out and the run
// completes with no machine declared dead.
func TestCoordinatorToleratesTransientPollFailures(t *testing.T) {
	fake := newFakeControl(3, func(m, call int) (MachineStatus, error) {
		if m == 1 && call <= 2 { // 2 < DeadAfterPolls=3: a transient blip
			return MachineStatus{}, fmt.Errorf("i/o timeout")
		}
		return idleStatus()
	})
	stats, err := runCoordinator(context.Background(), fake, recoveryTestConfig())
	if err != nil {
		t.Fatalf("transient poll failures aborted the run: %v", err)
	}
	if stats.Recoveries != 0 || stats.DeadMachines != 0 || stats.Dead != nil {
		t.Fatalf("transient failures declared a machine dead: %+v", stats)
	}
}

// TestCoordinatorNoSurvivors: when the last machine dies there is
// nowhere to recover onto — a typed error carrying the machine and its
// failed polls, not a hang or a panic.
func TestCoordinatorNoSurvivors(t *testing.T) {
	fake := newFakeControl(1, func(m, call int) (MachineStatus, error) {
		return MachineStatus{}, fmt.Errorf("connection refused")
	})
	cfg := recoveryTestConfig()
	cfg.Machines = 1
	_, err := runCoordinator(context.Background(), fake, cfg)
	if !errors.Is(err, ErrMachineLost) {
		t.Fatalf("want ErrMachineLost when no survivors remain, got %v", err)
	}
	var lost *MachineLostError
	if !errors.As(err, &lost) || lost.Machine != 0 || lost.Polls != 3 {
		t.Fatalf("wrong typed error detail: %+v", lost)
	}
}

// TestCoordinatorMultiLossTransfersSegments: when an adopter later dies
// too, its inherited segments (its own plus the first dead machine's)
// transfer wholesale to the next adopter.
func TestCoordinatorMultiLossTransfersSegments(t *testing.T) {
	// Machine 1 dies first; its adopter is survivors[1%2] = 2. Then
	// machine 2 dies (after enough successful polls to be alive for the
	// first recovery); the sole survivor 0 adopts segments {2, 1}.
	fake := newFakeControl(3, func(m, call int) (MachineStatus, error) {
		switch m {
		case 1:
			return MachineStatus{}, fmt.Errorf("connection refused")
		case 2:
			if call <= 5 {
				return MachineStatus{Live: 1, Spawned: 1}, nil
			}
			return MachineStatus{}, fmt.Errorf("connection refused")
		}
		return idleStatus()
	})
	stats, err := runCoordinator(context.Background(), fake, recoveryTestConfig())
	if err != nil {
		t.Fatalf("run did not survive the double loss: %v", err)
	}
	if stats.Recoveries != 2 || stats.DeadMachines != 2 {
		t.Fatalf("want two recoveries, got %+v", stats)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	ds := fake.recovers[0]
	if len(ds) != 2 {
		t.Fatalf("survivor 0 got %d directives, want 2", len(ds))
	}
	last := ds[1]
	if last.Dead != 2 || last.Adopter != 0 {
		t.Fatalf("second directive wrong: %+v", last)
	}
	segs := map[int]bool{}
	for _, s := range last.Adopt {
		segs[s] = true
	}
	if len(segs) != 2 || !segs[1] || !segs[2] {
		t.Fatalf("second adopter should inherit segments {1,2}, got %v", last.Adopt)
	}
}
