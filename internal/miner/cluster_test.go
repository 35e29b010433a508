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
		CacheCap: 1 << 10, StealInterval: 5 * time.Millisecond,
		StatusInterval: 2 * time.Millisecond, StealIdlePolls: -1,
		DisableStealing: true, DisableRecovery: true, Trace: true,
		FrameTimeout: 7 * time.Second, DialTimeout: 3 * time.Second,
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
	// spill-format byte, QJS2 the kernel flags and scalars) is refused
	// by version, not mis-parsed.
	data := AppendJobSpec(nil, cfg, ecfg)
	for _, old := range []string{"QJS1", "QJS2"} {
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

// TestJobSpecGolden pins the QJS3 bytes of one fully-populated config:
// field order, widths and flag bit positions are the protocol.
func TestJobSpecGolden(t *testing.T) {
	const golden = "514a5333333333333333eb3f090000004d000000c0c62d0000000000012d01000000046bf414000000" +
		"0400000003000000400000000800000000040000404b4c000000000080841e0000000000ffffffffffffffff" +
		"0d00000000863ba101000000005ed0b20000000009000000000000000c000000353a72657365743d302e3031"
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
		CacheCap: 1 << 10, StealInterval: 5 * time.Millisecond,
		StatusInterval: 2 * time.Millisecond, StealIdlePolls: -1,
		DisableStealing: true, DisableRecovery: true, Trace: true,
		FrameTimeout: 7 * time.Second, DialTimeout: 3 * time.Second,
		DeadAfterPolls: 9, FaultSpec: "5:reset=0.01",
	}
	if got := hex.EncodeToString(AppendJobSpec(nil, cfg, ecfg)); got != golden {
		t.Fatalf("QJS3 bytes changed:\n got  %s\n want %s", got, golden)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	sets := [][]graph.V{{1, 2, 3}, {7, 9}, {}}
	got, emitted, err := DecodeResults(AppendResults(nil, sets, 1<<40+5))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1<<40+5 {
		t.Fatalf("emission count came back as %d", emitted)
	}
	if len(got) != len(sets) {
		t.Fatalf("%d sets, want %d", len(got), len(sets))
	}
	for i := range sets {
		if len(got[i]) != len(sets[i]) {
			t.Fatalf("set %d corrupted: %v vs %v", i, got[i], sets[i])
		}
		for j := range sets[i] {
			if got[i][j] != sets[i][j] {
				t.Fatalf("set %d corrupted: %v vs %v", i, got[i], sets[i])
			}
		}
	}
	data := AppendResults(nil, sets, 3)
	for _, bad := range [][]byte{{}, data[:3], data[:9], data[:len(data)-2], append(append([]byte{}, data...), 1), []byte("QRS9....")} {
		if _, _, err := DecodeResults(bad); err == nil {
			t.Fatalf("corrupt results of %d bytes accepted", len(bad))
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
	f.Add(AppendResults(nil, [][]graph.V{{1, 2, 3}, {}, {9}}, 7))
	f.Add(append([]byte("QRS2"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, emitted, err := DecodeResults(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendResults(nil, sets, emitted), data) {
			t.Fatal("accepted results frame does not re-encode to itself")
		}
	})
}
