package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not an object: %s: %v", raw, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestManifestMeetsContract checks BENCHMARK.json against the limits
// its reader enforces before the first run, field by field.
func TestManifestMeetsContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := keysOf(t, data); !reflect.DeepEqual(got, want) {
		t.Fatalf("top-level keys %v, want exactly %v", got, want)
	}
	var raw struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds json.Number       `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}

	if n := len(raw.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1 to 32", n)
	}
	for _, arg := range raw.Command {
		if len(arg) > 200 {
			t.Errorf("command string %q is over 200 characters", arg)
		}
		if strings.HasPrefix(arg, "/") || strings.Contains("/"+arg+"/", "/../") {
			t.Errorf("command string %q is absolute or leads out of the repository", arg)
		}
		// The one file the command names lies under paths.
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command string %q names a file outside bench/", arg)
		}
	}
	if !reflect.DeepEqual(raw.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want bench and nothing else", raw.Paths)
	}
	for _, p := range raw.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains("/"+p+"/", "/../") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	secs, err := raw.RunSeconds.Int64()
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("run_seconds %s, want a whole number from 1 to 60", raw.RunSeconds)
	}

	used := map[string]bool{}
	name := func(kind string, n any) string {
		s, ok := n.(string)
		if !ok || !nameRE.MatchString(s) {
			t.Errorf("%s name %v does not match %s", kind, n, nameRE)
		}
		if used[s] {
			t.Errorf("name %q is used twice", s)
		}
		used[s] = true
		return s
	}
	fields := func(entry json.RawMessage, keys ...string) map[string]any {
		sort.Strings(keys)
		if got := keysOf(t, entry); !reflect.DeepEqual(got, keys) {
			t.Errorf("entry %s has keys %v, want exactly %v", entry, got, keys)
		}
		var m map[string]any
		json.Unmarshal(entry, &m)
		return m
	}

	if n := len(raw.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, entry := range raw.Workloads {
		m := fields(entry, "name", "why")
		name("workload", m["name"])
		why, _ := m["why"].(string)
		if why == "" || len([]rune(why)) > 200 || strings.ContainsAny(why, "\r\n") {
			t.Errorf("why %q is not one line of at most 200 characters", why)
		}
	}
	metric := func(kind string, entry json.RawMessage, keys ...string) (string, map[string]any) {
		m := fields(entry, keys...)
		n := name(kind, m["name"])
		if u, _ := m["unit"].(string); !unitRE.MatchString(u) {
			t.Errorf("%s: unit %v does not match %s", n, m["unit"], unitRE)
		}
		if b := m["better"]; b != "lower" && b != "higher" {
			t.Errorf("%s: better %v, want lower or higher", n, b)
		}
		return n, m
	}
	if n := len(raw.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	bounds := map[string]float64{}
	for _, entry := range raw.EndToEnd {
		n, m := metric("end-to-end", entry, "name", "unit", "better", "bound")
		b, ok := m["bound"].(float64)
		if !ok || b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v, want a share above 0 and at most 0.25", n, m["bound"])
		}
		bounds[n] = b
		if n == "setup_s" && (m["unit"] != "s" || m["better"] != "lower") {
			t.Errorf("setup_s must have unit s and better lower, has %v and %v", m["unit"], m["better"])
		}
	}
	if _, ok := bounds["setup_s"]; !ok {
		t.Error("no end-to-end metric setup_s")
	}
	for n, b := range bounds {
		if b > bounds["setup_s"] {
			t.Errorf("%s has bound %v, larger than that of setup_s", n, b)
		}
	}
	if n := len(raw.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, entry := range raw.PerLayer {
		metric("per-layer", entry, "name", "unit", "better")
	}

	// 4 + 22 runs per workload, their set-up and two builds must end
	// within 3420 s. A run costs its measured seconds plus set-up,
	// warm-up and build check, about 6 s here; allow twice that.
	if total := (4 + 22*len(raw.Workloads)) * (int(secs) + 12); total > 3420-300 {
		t.Errorf("%d runs of %d s measure for too long: about %d s of 3420", 4+22*len(raw.Workloads), secs, total)
	}
}

// TestManifestMatchesHarness holds BENCHMARK.json to what this build
// runs and prints: every workload and metric on one side is on the
// other, with the same unit, direction and bound.
func TestManifestMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentManifest(); !reflect.DeepEqual(onDisk, want) {
		got, _ := json.MarshalIndent(onDisk, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the harness; regenerate it with -manifest.\non disk:\n%s\nharness:\n%s", got, exp)
	}
}
