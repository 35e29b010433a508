package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// goldenSeed is the default seed, the one golden.json pins. Other
// seeds are valid inputs; their graphs differ, their search does not.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins one workload's graph and serial search at goldenSeed.
type golden struct {
	Fingerprint string `json:"fingerprint"`
	Nodes       int64  `json:"nodes"`
	Results     int    `json:"results"`
}

// loadGolden returns the pinned values that apply to this run, or nil
// for another seed or a smoke graph.
func loadGolden(workload string, e *env) (*golden, error) {
	if e.Seed != goldenSeed || e.Smoke {
		return nil, nil
	}
	var all map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("golden.json has no workload %s", workload)
	}
	return &g, nil
}

// writeGolden mines every workload's reference at goldenSeed and
// prints the file that pins them (-golden).
func writeGolden(w io.Writer) error {
	all := map[string]golden{}
	for i := range workloads {
		wl := &workloads[i]
		g := generate(wl.Spec, goldenSeed)
		ref, err := mineReference(g, wl.Queries[0], nil, 0)
		if err != nil {
			return err
		}
		all[wl.Name] = golden{fingerprint(g), ref.nodes, ref.results}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
