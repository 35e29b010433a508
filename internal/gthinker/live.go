package gthinker

import (
	"strconv"
	"sync"

	"gthinkerqc/internal/obs"
)

// LiveView is the coordinator's continuously-updated per-machine
// picture, built from the counter samples piggybacked on the status
// replies. It serves the debug server's /metrics endpoint (Samples)
// concurrently with the scan loop.
type LiveView struct {
	mu    sync.Mutex
	sts   []MachineStatus
	seen  []bool
	alive []bool
	ewma  []float64
	coord Counters // the coordinator's own rows
}

// backlogSmoothing weighs the newest sample in the gthinker_backlog_ewma
// gauge: high enough to track a draining queue within a few polls, low
// enough that a single empty sample does not erase a backlog.
const backlogSmoothing = 0.25

// NewLiveView builds a view over n machines.
func NewLiveView(n int) *LiveView {
	lv := &LiveView{
		sts:   make([]MachineStatus, n),
		seen:  make([]bool, n),
		alive: make([]bool, n),
		ewma:  make([]float64, n),
	}
	for m := range lv.alive {
		lv.alive[m] = true
	}
	return lv
}

// Observe records one successful status poll of machine m.
func (lv *LiveView) Observe(m int, st MachineStatus) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if m < 0 || m >= len(lv.sts) {
		return
	}
	lv.sts[m] = st
	lv.seen[m] = true
	lv.ewma[m] = backlogSmoothing*float64(st.BigPending) + (1-backlogSmoothing)*lv.ewma[m]
}

// ObserveDead marks machine m as declared dead.
func (lv *LiveView) ObserveDead(m int) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if m >= 0 && m < len(lv.alive) {
		lv.alive[m] = false
	}
}

// ObserveCoordinator records the coordinator's own counters.
func (lv *LiveView) ObserveCoordinator(c Counters) {
	lv.mu.Lock()
	lv.coord = c
	lv.mu.Unlock()
}

func machineLabel(m int) []obs.Label {
	return []obs.Label{{Key: "machine", Value: strconv.Itoa(m)}}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Samples renders the view in the debug server's sample model: per
// machine, the liveness gauges only a status poll knows plus the
// machine's counter rows, then the coordinator's rows unlabelled. The
// method matches the obs.DebugServer source signature.
func (lv *LiveView) Samples() []obs.Sample {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	var out []obs.Sample
	for m := range lv.sts {
		lbl := machineLabel(m)
		out = append(out,
			obs.Sample{Name: "gthinker_machine_up", Labels: lbl, Value: boolGauge(lv.alive[m])})
		if !lv.seen[m] {
			continue
		}
		st := &lv.sts[m]
		out = append(out,
			obs.Sample{Name: "gthinker_live_tasks", Labels: lbl, Value: float64(st.Live)},
			obs.Sample{Name: "gthinker_big_pending", Labels: lbl, Value: float64(st.BigPending)},
			obs.Sample{Name: "gthinker_backlog_ewma", Labels: lbl, Value: lv.ewma[m]},
			obs.Sample{Name: "gthinker_all_spawned", Labels: lbl, Value: boolGauge(st.AllSpawned)},
			obs.Sample{Name: "gthinker_spawn_cursor", Labels: lbl, Value: float64(st.Spawned)},
			obs.Sample{Name: "gthinker_tasks_sent_total", Labels: lbl, Value: float64(st.SentOut)},
			obs.Sample{Name: "gthinker_tasks_received_total", Labels: lbl, Value: float64(st.RecvIn)},
		)
		out = st.Counters.samples(out, lbl, false)
	}
	return lv.coord.samples(out, nil, true)
}
