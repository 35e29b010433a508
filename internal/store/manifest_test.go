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
	if got.NumVertices != m.NumVertices || got.NumEdges != m.NumEdges {
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
		"huge count":  append([]byte("GQM3\xff\xff\xff\x7f"), good[8:]...),
		"zero count":  append([]byte("GQM3\x00\x00\x00\x00"), good[8:]...),
		"header only": good[:16],
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
}

func TestManifestRejectsInvalid(t *testing.T) {
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
	f.Add([]byte("GQM3"))
	f.Add([]byte("GQM3\x01\x00\x00\x00\x05\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	for _, rv := range retiredManifests {
		f.Add(rv.data)
	}
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

// TestWireGolden pins the GQM3 bytes. Manifests are files on disk that
// a coordinator and qcworkers of different builds share, so the layout
// may move only with the magic. The row must encode to its bytes and
// decode back to its value.
func TestWireGolden(t *testing.T) {
	const want = "47514d33" + "03000000" + "d2040000" + "cd81010000000000" + manifestRows
	data, err := AppendManifest(nil, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("GQM3 bytes changed:\n got  %s\n want %s", got, want)
	}
	raw, _ := hex.DecodeString(want)
	if m, err := DecodeManifest(raw); err != nil || !reflect.DeepEqual(m, testManifest()) {
		t.Errorf("golden bytes decode to %+v, %v", m, err)
	}
}

// manifestRows is testManifest's three address rows.
const manifestRows = "0e0000003132372e302e302e313a39303030" + "0e0000003132372e302e302e313a39303130" + "00000000"

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// retiredManifests are testManifest as earlier layouts wrote it: GQM1
// with three addresses (control, vertex, task) per machine, and GQM2
// with an ownership-scheme word, in its hash and range forms (the
// range form carries a bounds table).
var retiredManifests = []struct {
	name, version string
	data          []byte
}{
	{"GQM1", "GQM1", mustHex("47514d31" + "00000000" + "03000000" + "d2040000" + "cd81010000000000" +
		"0e0000003132372e302e302e313a39303030" + "0e0000003132372e302e302e313a39303031" + "0e0000003132372e302e302e313a39303032" +
		"0e0000003132372e302e302e313a39303130" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000")},
	{"GQM2 splitmix", "GQM2", mustHex("47514d32" + "00000000" + "03000000" + "d2040000" + "cd81010000000000" + manifestRows)},
	{"GQM2 range", "GQM2", mustHex("47514d32" + "01000000" + "03000000" + "d2040000" + "cd81010000000000" +
		"00000000" + "90010000" + "90010000" + "d2040000" + manifestRows)},
}

// TestManifestRefusesRetiredVersions: a manifest of a retired layout is
// refused by its version, not mis-read as the current one.
func TestManifestRefusesRetiredVersions(t *testing.T) {
	for _, rv := range retiredManifests {
		_, err := DecodeManifest(rv.data)
		want := `unsupported manifest version "` + rv.version + `"`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s manifest: %v, want %s", rv.name, err, want)
		}
	}
}
