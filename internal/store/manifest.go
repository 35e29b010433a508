package store

import (
	"fmt"
	"os"
)

// The partition manifest (format "GQM3") is the deployment descriptor
// of a multi-process cluster run: every process — the coordinator and
// each qcworker — derives the same vertex ownership and peer address
// set from it, so no process ever has to trust another's idea of
// owner(v). Ownership is the gthinker engine's splitmix hash of v
// modulo the machine count, so the count is all a process needs.
// Layout (all integers little-endian, like GQC2/GQS1):
//
//	magic    [4]byte  "GQM3"
//	machines uint32   cluster size
//	n        uint32   graph vertex count   (fingerprint)
//	m        uint64   graph edge count     (fingerprint)
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
	// NumVertices / NumEdges fingerprint the graph being served.
	NumVertices int
	NumEdges    uint64
	// Machines lists one spec per machine, indexed by machine id.
	Machines []MachineSpec
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
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

// walk visits the GQM3 layout.
func (m *Manifest) walk(w *Walker) {
	w.Const("GQM3", "manifest version")
	// Every machine row needs at least its length prefix.
	machines := w.Count(len(m.Machines), maxManifestMachines, 4)
	U32(w, &m.NumVertices)
	U64(w, &m.NumEdges)
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

// DecodeManifest parses and validates one GQM3 manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := Decode(data, "GQM3 manifest", m.walk); err != nil {
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
