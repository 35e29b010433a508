package store

import (
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest() *Manifest {
	return &Manifest{
		Scheme:      OwnerSchemeSplitmix,
		NumVertices: 1234,
		NumEdges:    98765,
		Machines: []MachineSpec{
			{Addr: "127.0.0.1:9000"},
			{Addr: "127.0.0.1:9010"},
			{},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	data, err := AppendManifest(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != m.Scheme || got.NumVertices != m.NumVertices || got.NumEdges != m.NumEdges {
		t.Fatalf("header corrupted: %+v vs %+v", got, m)
	}
	if len(got.Machines) != len(m.Machines) {
		t.Fatalf("machine count %d, want %d", len(got.Machines), len(m.Machines))
	}
	for i := range m.Machines {
		if got.Machines[i] != m.Machines[i] {
			t.Fatalf("machine %d corrupted: %+v vs %+v", i, got.Machines[i], m.Machines[i])
		}
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.gqm")
	m := testManifest()
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Machines) != 3 || got.Machines[1].Addr != "127.0.0.1:9010" {
		t.Fatalf("file round trip corrupted: %+v", got)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	good, err := AppendManifest(nil, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:3],
		"bad magic":   append([]byte("GQS1"), good[4:]...),
		"truncated":   good[:len(good)-2],
		"trailing":    append(append([]byte{}, good...), 0xFF),
		"bad scheme":  append([]byte("GQM2\x07\x00\x00\x00"), good[8:]...),
		"huge count":  append([]byte("GQM2\x00\x00\x00\x00\xff\xff\xff\x7f"), good[12:]...),
		"zero count":  append([]byte("GQM2\x00\x00\x00\x00\x00\x00\x00\x00"), good[12:]...),
		"header only": good[:20],
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
}

func testRangeManifest() *Manifest {
	m := testManifest()
	m.Scheme = OwnerSchemeRange
	m.Bounds = []uint32{0, 400, 400, 1234}
	return m
}

func TestManifestRangeRoundTrip(t *testing.T) {
	m := testRangeManifest()
	data, err := AppendManifest(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != OwnerSchemeRange {
		t.Fatalf("scheme %d, want range", got.Scheme)
	}
	if len(got.Bounds) != len(m.Bounds) {
		t.Fatalf("bounds %v, want %v", got.Bounds, m.Bounds)
	}
	for i := range m.Bounds {
		if got.Bounds[i] != m.Bounds[i] {
			t.Fatalf("bounds %v, want %v", got.Bounds, m.Bounds)
		}
	}
	// The decoded bounds must not alias the input buffer (U32s may).
	data[len(data)-1] = 0xFF
	if got.Bounds[len(got.Bounds)-1] != m.Bounds[len(m.Bounds)-1] {
		t.Fatal("decoded bounds alias the input buffer")
	}
}

func TestManifestRangeValidate(t *testing.T) {
	mutate := func(f func(*Manifest)) *Manifest {
		m := testRangeManifest()
		f(m)
		return m
	}
	cases := map[string]*Manifest{
		"short bounds":      mutate(func(m *Manifest) { m.Bounds = []uint32{0, 1234} }),
		"long bounds":       mutate(func(m *Manifest) { m.Bounds = []uint32{0, 1, 2, 3, 1234} }),
		"nonzero start":     mutate(func(m *Manifest) { m.Bounds[0] = 1 }),
		"decreasing":        mutate(func(m *Manifest) { m.Bounds[2] = 399 }),
		"bad end":           mutate(func(m *Manifest) { m.Bounds[3] = 1000 }),
		"splitmix + bounds": mutate(func(m *Manifest) { m.Scheme = OwnerSchemeSplitmix }),
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := AppendManifest(nil, m); err == nil {
			t.Errorf("%s encoded", name)
		}
	}
	if err := testRangeManifest().Validate(); err != nil {
		t.Fatalf("valid range manifest rejected: %v", err)
	}
}

func TestManifestRangeRejectsTruncatedBounds(t *testing.T) {
	good, err := AppendManifest(nil, testRangeManifest())
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the bounds table: header is 20 bytes, bounds are 16.
	if _, err := DecodeManifest(good[:26]); err == nil {
		t.Fatal("truncated bounds accepted")
	}
}

func TestManifestRejectsInvalid(t *testing.T) {
	if _, err := AppendManifest(nil, &Manifest{Scheme: 9, Machines: []MachineSpec{{}}}); err == nil {
		t.Fatal("unknown scheme encoded")
	}
	if _, err := AppendManifest(nil, &Manifest{Machines: nil}); err == nil {
		t.Fatal("empty machine list encoded")
	}
	long := strings.Repeat("x", maxManifestAddr+1)
	if _, err := AppendManifest(nil, &Manifest{Machines: []MachineSpec{{Addr: long}}}); err == nil {
		t.Fatal("oversized address encoded")
	}
}

// FuzzDecodeManifest joins the frame fuzzers of the RPC plane: the
// manifest decoder must reject arbitrary bytes without panicking or
// allocating proportionally to corrupt counts, and accepted inputs
// must re-encode to an equivalent manifest.
func FuzzDecodeManifest(f *testing.F) {
	good, err := AppendManifest(nil, testManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	if rng, err := AppendManifest(nil, testRangeManifest()); err == nil {
		f.Add(rng)
	}
	f.Add([]byte("GQM2"))
	f.Add([]byte("GQM2\x00\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(gqm1Splitmix)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re, err := AppendManifest(nil, m)
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if len(m2.Machines) != len(m.Machines) || m2.NumVertices != m.NumVertices {
			t.Fatal("manifest round trip unstable")
		}
	})
}

// TestWireGolden pins the GQM2 bytes. Manifests are files on disk that
// a coordinator and qcworkers of different builds share, so the layout
// may move only with the magic. Each row must encode to its bytes and
// decode back to its value.
func TestWireGolden(t *testing.T) {
	const rows = "0e0000003132372e302e302e313a39303030" + "0e0000003132372e302e302e313a39303130" + "00000000"
	for _, tc := range []struct {
		name string
		m    *Manifest
		hex  string
	}{
		{"splitmix", testManifest(), "47514d32" + "00000000" + "03000000" + "d2040000" + "cd81010000000000" + rows},
		{"range", testRangeManifest(), "47514d32" + "01000000" + "03000000" + "d2040000" + "cd81010000000000" +
			"00000000" + "90010000" + "90010000" + "d2040000" + rows},
	} {
		data, err := AppendManifest(nil, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != tc.hex {
			t.Errorf("%s: GQM2 bytes changed:\n got  %s\n want %s", tc.name, got, tc.hex)
		}
		want, _ := hex.DecodeString(tc.hex)
		if m, err := DecodeManifest(want); err != nil || !reflect.DeepEqual(m, tc.m) {
			t.Errorf("%s: golden bytes decode to %+v, %v", tc.name, m, err)
		}
	}
}

// gqm1Splitmix is a GQM1 manifest as the previous layout wrote it:
// three addresses (control, vertex, task) per machine.
var gqm1Splitmix, _ = hex.DecodeString("47514d31" + "00000000" + "03000000" + "d2040000" + "cd81010000000000" +
	"0e0000003132372e302e302e313a39303030" + "0e0000003132372e302e302e313a39303031" + "0e0000003132372e302e302e313a39303032" +
	"0e0000003132372e302e302e313a39303130" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000")

// TestManifestRefusesGQM1: a manifest of the three-address layout is
// refused by its version, not mis-read as one address per row.
func TestManifestRefusesGQM1(t *testing.T) {
	_, err := DecodeManifest(gqm1Splitmix)
	if err == nil || !strings.Contains(err.Error(), `unsupported manifest version "GQM1"`) {
		t.Fatalf("GQM1 manifest: %v", err)
	}
}
