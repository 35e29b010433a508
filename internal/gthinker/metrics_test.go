package gthinker

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// distinctCounters gives every Counters field its own value (base plus
// the field index), by reflection, so a table row that reads or writes
// the wrong field cannot go unnoticed.
func distinctCounters(base uint64) Counters {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(base + uint64(i))
	}
	return c
}

// TestCounterTable holds the descriptor table to the struct it
// describes: one row per field, one name per row, and the wire codec,
// the merge and the exposition each honouring every row.
func TestCounterTable(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	if v.NumField() != len(counterTable) {
		t.Fatalf("Counters has %d fields, counterTable %d rows", v.NumField(), len(counterTable))
	}
	names := map[string]bool{}
	for _, d := range counterTable {
		if !strings.HasPrefix(d.name, "gthinker_") || d.help == "" || names[d.name] {
			t.Fatalf("row %q: missing prefix or help, or a duplicate name", d.name)
		}
		names[d.name] = true
	}
	for i := 0; i < v.NumField(); i++ {
		field := v.Field(i).Addr().Interface().(*uint64) // panics unless all-uint64
		rows := 0
		for _, d := range counterTable {
			if d.field(&c) == field {
				rows++
			}
		}
		if rows != 1 {
			t.Fatalf("Counters.%s has %d table rows, want 1", v.Type().Field(i).Name, rows)
		}
	}

	// The wire round trip is lossless, and corruption is rejected.
	m := &Metrics{
		Wall:       123 * time.Millisecond,
		Counters:   distinctCounters(100),
		WorkerBusy: []time.Duration{time.Second, 2 * time.Second},
	}
	data := store.Encode(nil, m.walk)
	got := &Metrics{}
	if err := store.Decode(data, "metrics", got.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("metrics wire round trip:\n got  %+v\n want %+v", got, m)
	}
	for _, bad := range [][]byte{{}, data[:9], data[:len(data)-3], append(append([]byte{}, data...), 1)} {
		if err := store.Decode(bad, "metrics", new(Metrics).walk); err == nil {
			t.Fatalf("corrupt metrics payload of %d bytes accepted", len(bad))
		}
	}

	// Merging two machines applies each row's rule.
	a, b := distinctCounters(100), distinctCounters(1000)
	merged := MergeMachineMetrics([]*Metrics{
		{Counters: a, WorkerBusy: []time.Duration{1, 2}},
		nil, // a machine that died
		{Counters: b, WorkerBusy: []time.Duration{3}},
	})
	for _, d := range counterTable {
		av, bv, want := *d.field(&a), *d.field(&b), uint64(0)
		switch d.rule {
		case mergeSum, mergeCoordinator:
			want = av + bv
		case mergeMax:
			want = bv
		}
		if got := *d.field(&merged.Counters); got != want {
			t.Fatalf("%s merged to %d, want %d", d.name, got, want)
		}
	}
	if !reflect.DeepEqual(merged.WorkerBusy, []time.Duration{1, 2, 3}) {
		t.Fatalf("merge: busy %v", merged.WorkerBusy)
	}

	// Every row reaches the exposition, typed: machine rows under the
	// machine's label, coordinator rows unlabelled.
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, a.samples(a.samples(nil, machineLabel(3), false), nil, true)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, d := range counterTable {
		typ, series := "gauge", d.name+`{machine="3"}`
		if strings.HasSuffix(d.name, "_total") {
			typ = "counter"
		}
		if d.rule == mergeCoordinator {
			series = d.name
		}
		for _, line := range []string{
			fmt.Sprintf("# HELP %s %s\n", d.name, d.help),
			fmt.Sprintf("# TYPE %s %s\n", d.name, typ),
			fmt.Sprintf("\n%s %d\n", series, *d.field(&a)),
		} {
			if !strings.Contains(text, line) {
				t.Fatalf("exposition lacks %q:\n%s", line, text)
			}
		}
	}
}

// TestScrapeAgreesAcrossEndpoints: after a 2×1 job over sockets, every
// series the coordinator's live view and the machines' own /metrics
// samples both serve must carry the same value — one name, one meaning.
func TestScrapeAgreesAcrossEndpoints(t *testing.T) {
	g := datagen.ErdosRenyi(200, 0.06, 11)
	lv := NewLiveView(2)
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 1, InProcessTCP: true,
		SpillDir: t.TempDir(), statusHook: lv.Observe,
	})
	if _, err := c.run(context.Background(), &triApp{g: g}); err != nil {
		t.Fatal(err)
	}
	key := func(s obs.Sample) string { return fmt.Sprint(s.Name, s.Labels) }
	view := map[string]float64{}
	for _, s := range lv.Samples() {
		view[key(s)] = s.Value
	}
	highWater := map[string]bool{}
	for _, d := range counterTable {
		highWater[d.name] = d.rule == mergeMax
	}
	shared := 0
	for _, h := range c.hosts {
		for _, s := range h.Runtime().Samples() {
			want, ok := view[key(s)]
			if !ok {
				continue
			}
			shared++
			// A sampled high-water mark may have risen since the last
			// poll; every other series is a count of finished events.
			if s.Value != want && !(highWater[s.Name] && s.Value > want) {
				t.Errorf("%s: machine serves %v, coordinator %v", key(s), s.Value, want)
			}
		}
	}
	if view[`gthinker_spawned_tasks_total[{machine 0}]`] == 0 || shared < 2*20 {
		t.Fatalf("only %d shared series, or no spawned tasks in the view: %v", shared, view)
	}
}

// FuzzDecodeMetrics and FuzzDecodeStatus feed arbitrary bytes to the
// table-driven walks behind the opShutdown report's metrics and the
// opStatus reply: garbage is an
// error — never a panic or an allocation past the bytes present — and
// whatever they accept re-encodes to the same bytes.
func FuzzDecodeMetrics(f *testing.F) {
	seed := store.Encode(nil, (&Metrics{Wall: 5, Counters: distinctCounters(1), WorkerBusy: []time.Duration{7, 8}}).walk)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(append(append([]byte{}, seed...), 0))
	// A worker count far past the bytes present.
	huge := store.Encode([]byte{0, 0, 0, 0, 0, 0, 0, 0}, new(Counters).walk)
	f.Add(append(huge, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &Metrics{}
		if err := store.Decode(data, "metrics", m.walk); err != nil {
			return
		}
		if len(m.WorkerBusy) > maxWireWorkers {
			t.Fatalf("accepted %d workers", len(m.WorkerBusy))
		}
		if !bytes.Equal(store.Encode(nil, m.walk), data) {
			t.Fatal("accepted metrics payload does not re-encode to itself")
		}
	})
}

func FuzzDecodeStatus(f *testing.F) {
	seed := store.Encode(nil, (&MachineStatus{AllSpawned: true, Live: 1, BigPending: 2, SentOut: 3, RecvIn: 4, Spawned: 5, Counters: distinctCounters(6), Failure: "boom"}).walk)
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add(append(append([]byte{}, seed...), 0))
	// A failure string far past the bytes present.
	f.Add(append(seed[:len(seed)-8], 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st MachineStatus
		if err := store.Decode(data, "status", st.walk); err != nil {
			return
		}
		if len(st.Failure) > maxFailureLen {
			t.Fatalf("accepted a %d-byte failure string", len(st.Failure))
		}
		// Only bit 0 of the flags byte is defined; the rest re-encode
		// as zero.
		if !bytes.Equal(store.Encode(nil, st.walk)[1:], data[1:]) {
			t.Fatal("accepted status reply does not re-encode to itself")
		}
	})
}
