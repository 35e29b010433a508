package gthinker

import (
	"reflect"
	"testing"
)

func TestStatusWireRoundTrip(t *testing.T) {
	for _, st := range []MachineStatus{
		{},
		{AllSpawned: true, Live: 42, BigPending: 7, SentOut: 3, RecvIn: 9, Spawned: 4711},
		// The counter snapshot piggybacked on the poll: losing any row
		// would freeze that series in the coordinator's live view.
		{AllSpawned: true, Live: 1, BigPending: 2, SentOut: 3, RecvIn: 4, Spawned: 5, Counters: distinctCounters(6)},
		{AllSpawned: true, Failure: "machine on fire"},
	} {
		got, err := decodeStatus(appendStatus(nil, st))
		if err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Fatalf("status round trip: %+v vs %+v", got, st)
		}
	}
	data := appendStatus(nil, MachineStatus{Failure: "x"})
	for _, bad := range [][]byte{{}, {1, 2}, data[:len(data)-1], append(append([]byte{}, data...), 1)} {
		if _, err := decodeStatus(bad); err == nil {
			t.Fatalf("corrupt status reply of %d bytes accepted", len(bad))
		}
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	r := joinRequest{MachineID: 2, Machines: 5, NumVerts: 1000, NumEdges: 5000, Spec: []byte("spec-bytes")}
	got, err := decodeJoinRequest(appendJoinRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineID != 2 || got.Machines != 5 || got.NumVerts != 1000 ||
		got.NumEdges != 5000 || string(got.Spec) != "spec-bytes" {
		t.Fatalf("join round trip: %+v", got)
	}
	// Wrong protocol version is refused.
	bad := appendJoinRequest(nil, r)
	bad[0] = 99
	if _, err := decodeJoinRequest(bad); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
}

func TestRecoverDirectiveRoundTrip(t *testing.T) {
	d := RecoverDirective{Dead: 3, Fallback: 1, Adopter: 1, Adopt: []int{3, 5, 7}}
	got, err := decodeRecover(appendRecover(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("recover directive round trip: %+v vs %+v", got, d)
	}
	// Truncated and oversized payloads are rejected, not crash.
	data := appendRecover(nil, d)
	for _, bad := range [][]byte{{}, data[:5], data[:len(data)-2], append(append([]byte{}, data...), 9)} {
		if _, err := decodeRecover(bad); err == nil {
			t.Fatalf("corrupt recover payload of %d bytes accepted", len(bad))
		}
	}
}

func TestAddrTableRoundTrip(t *testing.T) {
	v := []string{"a:1", "b:2", "c:3"}
	ta := []string{"a:4", "", "c:6"}
	gv, gt, err := decodeAddrTable(appendAddrTable(nil, v, ta))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gv, v) || !reflect.DeepEqual(gt, ta) {
		t.Fatalf("addr table round trip: %v %v", gv, gt)
	}
	if _, _, err := decodeAddrTable([]byte{255, 255, 255, 255}); err == nil {
		t.Fatal("absurd machine count accepted")
	}
}
