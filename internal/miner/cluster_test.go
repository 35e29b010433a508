package miner

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/quasiclique"
)

func TestJobSpecRoundTrip(t *testing.T) {
	cfg := Config{
		Params: quasiclique.Params{Gamma: 0.85, MinSize: 9},
		Options: quasiclique.Options{
			DisableLookahead: true, QuickCompat: true,
			SkipMaximalityFilter: true,
		},
		TauSplit: 77, TauTime: 3 * time.Millisecond, Strategy: SizeThreshold,
		TimeBudget: 90 * time.Second,
	}
	ecfg := gthinker.Config{
		Machines: 4, WorkersPerMachine: 3, QueueCap: 64, BatchSize: 8,
		CacheCap: 1 << 10, StatusInterval: 2 * time.Millisecond,
		DisableGlobalQueue: true, Trace: true,
		FrameTimeout:   7 * time.Second,
		DeadAfterPolls: 9, FaultSpec: "5:reset=0.01",
	}
	gcfg, gecfg, err := DecodeJobSpec(AppendJobSpec(nil, cfg, ecfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gcfg, cfg) {
		t.Fatalf("miner config round trip:\n got  %+v\n want %+v", gcfg, cfg)
	}
	if !reflect.DeepEqual(gecfg, ecfg) {
		t.Fatalf("engine config round trip:\n got  %+v\n want %+v", gecfg, ecfg)
	}

	// A spec from a build with another layout (QJS1 carried a
	// spill-format byte, QJS2 the kernel flags and scalars, QJS3 the
	// steal period, hysteresis streak and steal/recovery opt-outs, QJS4
	// the dial timeout) is refused by version, not mis-parsed.
	data := AppendJobSpec(nil, cfg, ecfg)
	for _, old := range []string{"QJS1", "QJS2", "QJS3", "QJS4"} {
		stale := append([]byte(old), data[4:]...)
		if _, _, err := DecodeJobSpec(stale); err == nil || !strings.Contains(err.Error(), "unsupported job spec version") {
			t.Fatalf("%s spec: err = %v, want an unsupported-version error", old, err)
		}
	}
	for _, bad := range [][]byte{{}, data[:3], data[:len(data)-1], append(append([]byte{}, data...), 7), []byte("XXXX")} {
		if _, _, err := DecodeJobSpec(bad); err == nil {
			t.Fatalf("corrupt job spec of %d bytes accepted", len(bad))
		}
	}
}

// TestJobSpecGolden pins the QJS5 bytes of one fully-populated config:
// field order, widths and flag bit positions are the protocol.
func TestJobSpecGolden(t *testing.T) {
	const golden = "514a5335333333333333eb3f090000004d000000c0c62d0000000000012d01000000046bf414000000" +
		"040000000300000040000000080000000004000080841e0000000000" + "03000000" +
		"00863ba10100000009000000000000000c000000353a72657365743d302e3031"
	cfg := Config{
		Params: quasiclique.Params{Gamma: 0.85, MinSize: 9},
		Options: quasiclique.Options{
			DisableKCore: true, DisableCoverVertex: true, DisableCriticalVertex: true,
			DisableLowerBound: true, SkipMaximalityFilter: true,
		},
		TauSplit: 77, TauTime: 3 * time.Millisecond, Strategy: SizeThreshold,
		TimeBudget: 90 * time.Second,
	}
	ecfg := gthinker.Config{
		Machines: 4, WorkersPerMachine: 3, QueueCap: 64, BatchSize: 8,
		CacheCap: 1 << 10, StatusInterval: 2 * time.Millisecond,
		DisableGlobalQueue: true, Trace: true,
		FrameTimeout:   7 * time.Second,
		DeadAfterPolls: 9, FaultSpec: "5:reset=0.01",
	}
	if got := hex.EncodeToString(AppendJobSpec(nil, cfg, ecfg)); got != golden {
		t.Fatalf("QJS5 bytes changed:\n got  %s\n want %s", got, golden)
	}
}

// TestWireGolden pins the QRS3 bytes a machine ships back after a job.
// Each row must encode to its bytes and decode back to its value (the
// QJS5 job spec has its own golden test above).
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sets    [][]graph.V
		emitted int64
		roots   []metrics.RootStat
		hex     string
	}{
		{"empty", [][]graph.V{}, 0, []metrics.RootStat{}, "51525333" + "0000000000000000" + "00000000" + "00000000"},
		{"sets", [][]graph.V{{1, 2, 3}, {7, 1 << 31}, {}}, 1<<40 + 5,
			[]metrics.RootStat{{Root: 9, SubSize: 40, Mining: 1500, Materialize: 2, Subtasks: 3}},
			"51525333" + "0500000000010000" + "03000000" +
				"03000000" + "01000000" + "02000000" + "03000000" + "02000000" + "07000000" + "00000080" + "00000000" +
				"01000000" + "09000000" + "28000000" + "dc05000000000000" + "0200000000000000" + "03000000"},
	} {
		if got := hex.EncodeToString(AppendResults(nil, tc.sets, tc.emitted, tc.roots)); got != tc.hex {
			t.Errorf("%s: QRS3 bytes changed:\n got  %s\n want %s", tc.name, got, tc.hex)
		}
		data, _ := hex.DecodeString(tc.hex)
		sets, emitted, roots, err := DecodeResults(data, 1<<32)
		if err != nil || emitted != tc.emitted || !reflect.DeepEqual(sets, tc.sets) || !reflect.DeepEqual(roots, tc.roots) {
			t.Fatalf("%s: golden bytes decode to %v, %d, %v, %v", tc.name, sets, emitted, roots, err)
		}
	}
}

// TestResultsRoundTrip: a frame decodes to what was encoded, and a
// frame that is truncated, padded, of another version, or names a set
// or a root the coordinator's graph of |V| = 10 cannot hold is refused
// — before Finalize indexes by its members.
func TestResultsRoundTrip(t *testing.T) {
	const numVerts = 10
	sets := [][]graph.V{{1, 2, 3}, {7, 9}, {}}
	roots := []metrics.RootStat{{Root: 9, SubSize: 10, Mining: time.Second, Materialize: time.Millisecond, Subtasks: 4}, {Root: 0}}
	got, emitted, gotRoots, err := DecodeResults(AppendResults(nil, sets, 1<<40+5, roots), numVerts)
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1<<40+5 || !reflect.DeepEqual(got, sets) || !reflect.DeepEqual(gotRoots, roots) {
		t.Fatalf("round trip: %v, %d, %v", got, emitted, gotRoots)
	}
	data := AppendResults(nil, sets, 3, roots)
	bad := [][]byte{{}, data[:3], data[:9], data[:len(data)-2], append(append([]byte{}, data...), 1), []byte("QRS9....")}
	for _, set := range [][]graph.V{{9, 1}, {2, 9, 1}, {1, 4294967295}, {1, 1, 2}, {10}} {
		bad = append(bad, AppendResults(nil, [][]graph.V{{1, 2}, set}, 2, nil))
	}
	for _, r := range []metrics.RootStat{{Root: 10}, {Root: 4294967295}, {Root: 1, SubSize: 11}} {
		bad = append(bad, AppendResults(nil, sets, 2, []metrics.RootStat{r}))
	}
	stale := append([]byte{}, data...)
	stale[3] = '2' // the version before root rows
	bad = append(bad, stale)
	for i, b := range bad {
		if _, _, _, err := DecodeResults(b, numVerts); err == nil {
			t.Fatalf("corrupt results frame %d (%d bytes) accepted", i, len(b))
		}
	}
}

// FuzzDecodeJobSpec and FuzzDecodeResults feed arbitrary bytes to the
// two decoders that parse what a socket delivered: they must reject
// garbage with an error — never panic or allocate past the bytes
// present — and whatever they accept must re-encode to the same bytes.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add(AppendJobSpec(nil, Config{Params: quasiclique.Params{Gamma: 0.9, MinSize: 5}},
		gthinker.Config{Machines: 2, FaultSpec: "1:dialfail=0.5"}))
	f.Add([]byte("QJS2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ecfg, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		// Encoding applies defaults, so compare at the fixed point.
		again := AppendJobSpec(nil, cfg, ecfg)
		cfg2, ecfg2, err := DecodeJobSpec(again)
		if err != nil || !bytes.Equal(AppendJobSpec(nil, cfg2, ecfg2), again) {
			t.Fatalf("accepted spec does not round-trip: %v", err)
		}
	})
}

func FuzzDecodeResults(f *testing.F) {
	f.Add(AppendResults(nil, [][]graph.V{{1, 2, 3}, {}, {9}}, 7, []metrics.RootStat{{Root: 3, SubSize: 5, Mining: 9, Subtasks: 1}}))
	f.Add(append([]byte("QRS3"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	for _, set := range [][]graph.V{{9, 1}, {2, 9, 1}, {1, 4294967295}, {1, 1, 2}} {
		f.Add(AppendResults(nil, [][]graph.V{set}, 1, nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, emitted, roots, err := DecodeResults(data, 10)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendResults(nil, sets, emitted, roots), data) {
			t.Fatal("accepted results frame does not re-encode to itself")
		}
		quasiclique.Finalize([][][]graph.V{sets}, false) // must not panic
	})
}
