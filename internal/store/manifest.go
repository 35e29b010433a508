package store

import (
	"fmt"
	"os"
)

// The partition manifest (format "GQM2") is the deployment descriptor
// of a multi-process cluster run: every process — the coordinator and
// each qcworker — derives the same vertex ownership and peer address
// set from it, so no process ever has to trust another's idea of
// owner(v). Layout (all integers little-endian, like GQC2/GQS1):
//
//	magic    [4]byte  "GQM2"
//	scheme   uint32   vertex-ownership scheme (OwnerScheme*)
//	machines uint32   cluster size
//	n        uint32   graph vertex count   (fingerprint)
//	m        uint64   graph edge count     (fingerprint)
//	bounds   [machines+1]uint32   (OwnerSchemeRange only)
//	machines × { addr: u32 len + bytes }
//
// Each machine has one TCP listen address, which answers its control,
// adjacency and task frames; an empty string means "dynamic" — the
// worker binds 127.0.0.1:0 and reports the bound address on its ready
// line (the single-host qcmine flow). Pre-assigned addresses are for
// multi-host deployments where workers must bind known endpoints.
//
// The n/m fingerprint ties a manifest to one graph file: a worker
// whose mapped graph disagrees refuses to join, so a stale manifest
// cannot silently mix partitions of two different graphs.

// OwnerSchemeSplitmix is the default vertex-ownership scheme:
// owner(v) = splitmix64(v) mod machines (the gthinker engine's hash
// partitioning). New schemes get new numbers; a reader must reject
// schemes it does not implement.
const OwnerSchemeSplitmix uint32 = 0

// OwnerSchemeRange assigns each machine one contiguous vertex range:
// machine i owns [Bounds[i], Bounds[i+1]). Because GQC2 packs
// adjacency rows in vertex order, a range partition is also a
// *byte-range* partition of the mapped neighbors array — each worker's
// owned rows are one contiguous span it can madvise and keep resident
// while the rest of the graph stays cold (~1/N residency per worker).
// Bounds are chosen by the partitioner (typically equal-entry splits
// from graph.RangeBounds) and shipped in the manifest, so every
// process derives identical ownership without hashing.
const OwnerSchemeRange uint32 = 1

// maxManifestMachines bounds the machine count accepted from a
// manifest before any dependent allocation.
const maxManifestMachines = 1 << 16

// maxManifestAddr bounds one address string.
const maxManifestAddr = 1 << 12

// MachineSpec is one machine's row in the manifest.
type MachineSpec struct {
	// Addr is the machine's listen address: the coordinator's control
	// frames and its peers' adjacency and task frames all arrive there.
	Addr string
}

// Manifest describes one cluster deployment.
type Manifest struct {
	// Scheme selects the vertex-ownership function.
	Scheme uint32
	// NumVertices / NumEdges fingerprint the graph being served.
	NumVertices int
	NumEdges    uint64
	// Machines lists one spec per machine, indexed by machine id.
	Machines []MachineSpec
	// Bounds is the range-partition table (OwnerSchemeRange only):
	// machine i owns vertices [Bounds[i], Bounds[i+1]). len is
	// len(Machines)+1, Bounds[0] == 0, nondecreasing, and the last
	// entry equals NumVertices.
	Bounds []uint32
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	switch m.Scheme {
	case OwnerSchemeSplitmix:
		if len(m.Bounds) != 0 {
			return fmt.Errorf("store: splitmix manifest carries %d range bounds", len(m.Bounds))
		}
	case OwnerSchemeRange:
		if len(m.Bounds) != len(m.Machines)+1 {
			return fmt.Errorf("store: range manifest has %d bounds for %d machines (want machines+1)", len(m.Bounds), len(m.Machines))
		}
		if m.Bounds[0] != 0 {
			return fmt.Errorf("store: range bounds start at %d, want 0", m.Bounds[0])
		}
		for i := 1; i < len(m.Bounds); i++ {
			if m.Bounds[i] < m.Bounds[i-1] {
				return fmt.Errorf("store: range bounds decrease at %d (%d < %d)", i, m.Bounds[i], m.Bounds[i-1])
			}
		}
		if int(m.Bounds[len(m.Bounds)-1]) != m.NumVertices {
			return fmt.Errorf("store: range bounds end at %d, want the vertex count %d", m.Bounds[len(m.Bounds)-1], m.NumVertices)
		}
	default:
		return fmt.Errorf("store: unknown ownership scheme %d", m.Scheme)
	}
	if len(m.Machines) < 1 || len(m.Machines) > maxManifestMachines {
		return fmt.Errorf("store: manifest has %d machines", len(m.Machines))
	}
	if m.NumVertices < 0 {
		return fmt.Errorf("store: manifest vertex count %d", m.NumVertices)
	}
	for i, spec := range m.Machines {
		if len(spec.Addr) > maxManifestAddr {
			return fmt.Errorf("store: machine %d address of %d bytes", i, len(spec.Addr))
		}
	}
	return nil
}

// walk visits the GQM2 layout.
func (m *Manifest) walk(w *Walker) {
	w.Const("GQM2", "manifest version")
	U32(w, &m.Scheme)
	// Every machine row needs at least its length prefix.
	machines := w.Count(len(m.Machines), maxManifestMachines, 4)
	U32(w, &m.NumVertices)
	U64(w, &m.NumEdges)
	if m.Scheme == OwnerSchemeRange {
		w.U32s(&m.Bounds, machines+1)
	}
	if w.Decoding() {
		m.Machines = make([]MachineSpec, machines)
	}
	for i := range m.Machines {
		w.String(&m.Machines[i].Addr, maxManifestAddr)
	}
}

// AppendManifest appends m's encoding to dst.
func AppendManifest(dst []byte, m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return Encode(dst, m.walk), nil
}

// DecodeManifest parses and validates one GQM2 manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := Decode(data, "GQM2 manifest", m.walk); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifestFile writes m to path.
func WriteManifestFile(path string, m *Manifest) error {
	data, err := AppendManifest(nil, m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadManifestFile reads and validates the manifest at path.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return m, nil
}
