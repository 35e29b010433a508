package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer's public function.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the log was created
	DurNS   int64  `json:"dur_ns"`
}

// spanLog keeps the benchmark's own spans in memory until the run
// ends. A nil *spanLog records nothing, so the untraced run pays one
// nil check per call.
type spanLog struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// begin opens a span under parent and returns its id and the function
// that closes it.
func (l *spanLog) begin(parent int, layer, name string) (int, func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{Parent: parent, Layer: layer, Name: name, StartNS: int64(start.Sub(l.origin))})
	id := len(l.spans)
	l.spans[id-1].ID = id
	l.mu.Unlock()
	return id, func() {
		d := time.Since(start)
		l.mu.Lock()
		l.spans[id-1].DurNS = int64(d)
		l.mu.Unlock()
	}
}

// call records fn as one span.
func (l *spanLog) call(parent int, layer, name string, fn func()) {
	_, end := l.begin(parent, layer, name)
	fn()
	end()
}

// write stores the spans as JSON, every one tagged by the workload id
// in the file's header.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{l.workload, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
