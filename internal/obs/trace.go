// Package obs is the observability plane: a low-overhead event tracer
// whose spans export as Chrome trace-event JSON (one cluster-wide
// timeline, viewable in Perfetto), and a debug HTTP server exposing
// Prometheus-format metrics, health, expvar, and pprof.
//
// The package is imported by the engine (internal/gthinker), never the
// other way around: obs knows nothing about machines, tasks, or
// transports beyond the integers a span carries.
package obs

import (
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gthinkerqc/internal/store"
)

// SpanKind classifies one traced event. The taxonomy covers the
// engine's scheduling surface: task spawning and compute, the spill /
// refill disk path, batched remote fetches, steal shipping on both
// ends, and the recovery phases of a worker loss.
type SpanKind uint8

const (
	// KindSpawn is one spawn scan (arg1 = tasks spawned, arg2 = root
	// vertices tested to find them).
	KindSpawn SpanKind = iota
	// KindCompute is one Compute call (arg1 = subtasks created).
	KindCompute
	// KindSpill is one task batch spilled to disk (arg1 = tasks).
	KindSpill
	// KindRefill is one spill batch read back (arg1 = tasks).
	KindRefill
	// KindFetch is one batched remote adjacency round trip
	// (arg1 = owner machine, arg2 = vertex ids fetched).
	KindFetch
	// KindStealSend is a donor-side steal directive execution
	// (arg1 = receiving machine, arg2 = tasks shipped).
	KindStealSend
	// KindStealRecv is a stolen batch landing on the receiver
	// (arg1 = tasks delivered).
	KindStealRecv
	// KindSteal is a coordinator steal round (arg1 = tasks moved,
	// arg2 = directives planned).
	KindSteal
	// KindRecover is the coordinator declaring a machine dead and
	// directing the survivors (arg1 = dead machine id).
	KindRecover
	// KindRecoverPeer is a survivor absorbing a recovery directive
	// (arg1 = dead machine id, arg2 = re-owned tasks).
	KindRecoverPeer
	// KindResolve is one batch of tasks having its pulls resolved
	// (arg1 = tasks, arg2 = remote lookups); the batch's KindFetch
	// round trips nest inside it. Appended last: the kind bytes of
	// stored OTR1 traces keep their meaning.
	KindResolve

	numSpanKinds = int(KindResolve) + 1
)

// spanNames maps each kind to its Chrome event name and argument
// labels (empty label = omit the argument).
var spanNames = [numSpanKinds]struct{ name, arg1, arg2 string }{
	KindSpawn:       {"spawn", "tasks", ""},
	KindCompute:     {"compute", "subtasks", ""},
	KindSpill:       {"spill", "tasks", ""},
	KindRefill:      {"refill", "tasks", ""},
	KindFetch:       {"fetch", "owner", "ids"},
	KindStealSend:   {"steal-send", "recv", "tasks"},
	KindStealRecv:   {"steal-recv", "tasks", ""},
	KindSteal:       {"steal-round", "moved", "directives"},
	KindRecover:     {"recover", "dead", ""},
	KindRecoverPeer: {"recover-peer", "dead", "reowned"},
	KindResolve:     {"resolve", "tasks", "remote_ids"},
}

func (k SpanKind) String() string {
	if int(k) < numSpanKinds {
		return spanNames[k].name
	}
	return "kind-" + strconv.Itoa(int(k))
}

// Span is one fixed-size trace record. Start is an absolute epoch
// timestamp (unix nanoseconds), so spans recorded by different
// processes on one host merge onto a single timeline with no clock
// negotiation. Pid/Tid follow the cluster convention: Pid is the
// machine id (-1 for the coordinator), Tid the dense worker id
// (negative for a machine's control track).
type Span struct {
	Kind  SpanKind
	Pid   int32
	Tid   int32
	Start int64 // unix nanoseconds
	Dur   int64 // nanoseconds
	Arg1  uint64
	Arg2  uint64
}

// Trace is a set of spans plus the count that fell off the ring
// buffers before they could be snapshotted.
type Trace struct {
	Spans   []Span
	Dropped uint64
}

// DefaultTrackCap is the per-track ring capacity when NewTracer is
// given zero: 16 Ki spans × 48 B ≈ 768 KiB per track, hours of
// scheduling events for anything but the hottest loops; overflow
// drops the oldest spans and counts them.
const DefaultTrackCap = 1 << 14

// track is one ring buffer. The cursor is atomic — concurrent
// recorders claim distinct slots without coordination — and the short
// slot write is serialized by an (uncontended in the worker-track
// case) mutex so snapshots under the race detector read quiescent
// memory.
type track struct {
	mu    sync.Mutex
	buf   []Span
	total atomic.Uint64
}

// Tracer records spans into per-track rings. One track per mining
// worker plus one control track per machine keeps worker-path
// recording contention-free. All methods are nil-safe: a disabled
// tracer is a nil pointer and Record is a single branch.
type Tracer struct {
	pid    int32
	tids   []int32
	tracks []track
}

// NewTracer builds a tracer for process pid with one ring per entry
// of tids (the per-track thread ids). cap 0 means DefaultTrackCap.
func NewTracer(pid int32, tids []int32, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTrackCap
	}
	t := &Tracer{pid: pid, tids: append([]int32(nil), tids...), tracks: make([]track, len(tids))}
	for i := range t.tracks {
		t.tracks[i].buf = make([]Span, capacity)
	}
	return t
}

// Record appends a span to the given track. Nil-safe; safe for
// concurrent use.
func (t *Tracer) Record(trk int, kind SpanKind, start time.Time, dur time.Duration, arg1, arg2 uint64) {
	if t == nil || trk < 0 || trk >= len(t.tracks) {
		return
	}
	r := &t.tracks[trk]
	cur := r.total.Add(1) - 1
	s := Span{Kind: kind, Pid: t.pid, Tid: t.tids[trk], Start: start.UnixNano(), Dur: int64(dur), Arg1: arg1, Arg2: arg2}
	r.mu.Lock()
	r.buf[cur%uint64(len(r.buf))] = s
	r.mu.Unlock()
}

// Counts returns the total spans recorded and the number that were
// overwritten before any snapshot (ring overflow). Nil-safe.
func (t *Tracer) Counts() (recorded, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	for i := range t.tracks {
		r := &t.tracks[i]
		total := r.total.Load()
		recorded += total
		if capTrk := uint64(len(r.buf)); total > capTrk {
			dropped += total - capTrk
		}
	}
	return recorded, dropped
}

// Snapshot copies the retained spans out of the rings, oldest first
// within each track, sorted by start time across tracks. Nil-safe
// (returns an empty trace). Recording may continue concurrently; the
// snapshot is a consistent per-track prefix.
func (t *Tracer) Snapshot() *Trace {
	tr := &Trace{}
	if t == nil {
		return tr
	}
	for i := range t.tracks {
		r := &t.tracks[i]
		r.mu.Lock()
		total := r.total.Load()
		capTrk := uint64(len(r.buf))
		if total <= capTrk {
			tr.Spans = append(tr.Spans, r.buf[:total]...)
		} else {
			tr.Dropped += total - capTrk
			start := total % capTrk
			tr.Spans = append(tr.Spans, r.buf[start:]...)
			tr.Spans = append(tr.Spans, r.buf[:start]...)
		}
		r.mu.Unlock()
	}
	sortSpans(tr.Spans)
	return tr
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
}

// Merge combines per-machine traces into one cluster-wide timeline:
// spans concatenate and re-sort by their epoch timestamps, dropped
// counts add. Nil traces are skipped.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		out.Spans = append(out.Spans, tr.Spans...)
		out.Dropped += tr.Dropped
	}
	sortSpans(out.Spans)
	return out
}

// Wire format (OTR1): the payload the control plane's trace-collection
// op ships. Versioned and bounds-checked like every other on-wire
// format in the repo.
const (
	// spanWireSize is one fixed-size record: kind u8 + pid u32 +
	// tid u32 + start u64 + dur u64 + arg1 u64 + arg2 u64.
	spanWireSize = 1 + 4 + 4 + 8 + 8 + 8 + 8
	// maxWireSpans bounds the span count accepted off the wire before
	// the slice is allocated (the per-track rings bound the real count
	// far below this).
	maxWireSpans = 1 << 26
)

// walk visits the OTR1 layout: the magic and a u32 version 1, the
// dropped count, then the spans.
func (tr *Trace) walk(w *store.Walker) {
	w.Const("OTR1\x01\x00\x00\x00", "trace version")
	store.U64(w, &tr.Dropped)
	store.Slice(w, &tr.Spans, maxWireSpans, spanWireSize, func(s *Span) {
		store.U8(w, &s.Kind)
		store.U32(w, &s.Pid)
		store.U32(w, &s.Tid)
		store.U64(w, &s.Start)
		store.U64(w, &s.Dur)
		store.U64(w, &s.Arg1)
		store.U64(w, &s.Arg2)
	})
}

// AppendTrace encodes tr (nil encodes as empty).
func AppendTrace(dst []byte, tr *Trace) []byte {
	if tr == nil {
		tr = &Trace{}
	}
	return store.Encode(dst, tr.walk)
}

// DecodeTrace decodes one AppendTrace payload.
func DecodeTrace(data []byte) (*Trace, error) {
	tr := &Trace{}
	if err := store.Decode(data, "OTR1 trace", tr.walk); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteChromeTrace renders tr as Chrome trace-event JSON (the object
// form: {"traceEvents": [...]}), loadable in Perfetto or
// chrome://tracing. Pids and tids are remapped to the non-negative
// integers the viewers expect — the coordinator becomes pid 0,
// machine m becomes pid m+1, a machine's control track becomes tid 0
// and worker w becomes tid w+1 — with metadata events naming every
// process and thread, so the raw timeline reads "machine 2 / worker
// 5", not bare numbers.
func WriteChromeTrace(w io.Writer, tr *Trace) error {
	if tr == nil {
		tr = &Trace{}
	}
	ew := &errWriter{w: w}
	ew.str(`{"traceEvents":[`)
	first := true
	type key struct{ pid, tid int32 }
	procSeen := map[int32]bool{}
	threadSeen := map[key]bool{}
	emitMeta := func(s Span) {
		pid, tid := chromePid(s.Pid), chromeTid(s.Tid)
		if !procSeen[s.Pid] {
			procSeen[s.Pid] = true
			name := "coordinator"
			if s.Pid >= 0 {
				name = "machine " + strconv.Itoa(int(s.Pid))
			}
			ew.sep(&first)
			ew.str(`{"ph":"M","name":"process_name","pid":`)
			ew.num(int64(pid))
			ew.str(`,"tid":0,"args":{"name":"`)
			ew.str(name)
			ew.str(`"}}`)
		}
		k := key{s.Pid, s.Tid}
		if !threadSeen[k] {
			threadSeen[k] = true
			var name string
			switch {
			case s.Pid < 0:
				name = "scheduler"
			case s.Tid < 0:
				name = "control"
			default:
				name = "worker " + strconv.Itoa(int(s.Tid))
			}
			ew.sep(&first)
			ew.str(`{"ph":"M","name":"thread_name","pid":`)
			ew.num(int64(pid))
			ew.str(`,"tid":`)
			ew.num(int64(tid))
			ew.str(`,"args":{"name":"`)
			ew.str(name)
			ew.str(`"}}`)
		}
	}
	for _, s := range tr.Spans {
		emitMeta(s)
		names := spanNames[0]
		if int(s.Kind) < numSpanKinds {
			names = spanNames[s.Kind]
		}
		ew.sep(&first)
		ew.str(`{"ph":"X","name":"`)
		ew.str(s.Kind.String())
		ew.str(`","pid":`)
		ew.num(int64(chromePid(s.Pid)))
		ew.str(`,"tid":`)
		ew.num(int64(chromeTid(s.Tid)))
		ew.str(`,"ts":`)
		ew.micros(s.Start)
		ew.str(`,"dur":`)
		ew.micros(s.Dur)
		ew.str(`,"args":{`)
		if names.arg1 != "" {
			ew.str(`"`)
			ew.str(names.arg1)
			ew.str(`":`)
			ew.num(int64(s.Arg1))
		}
		if names.arg2 != "" {
			ew.str(`,"`)
			ew.str(names.arg2)
			ew.str(`":`)
			ew.num(int64(s.Arg2))
		}
		ew.str(`}}`)
	}
	ew.str("]}\n")
	return ew.err
}

// WriteChromeTraceFile writes tr to path as Chrome trace-event JSON.
func WriteChromeTraceFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChromeTrace(f, tr)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func chromePid(pid int32) int32 {
	if pid < 0 {
		return 0
	}
	return pid + 1
}

func chromeTid(tid int32) int32 {
	if tid < 0 {
		return 0
	}
	return tid + 1
}

// errWriter collects the first write error so the JSON emitter stays
// linear instead of error-checking every token.
type errWriter struct {
	w   io.Writer
	err error
	buf []byte
}

// sep writes the inter-event comma, skipping the first element.
func (e *errWriter) sep(first *bool) {
	if *first {
		*first = false
		return
	}
	e.str(",")
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	if _, err := io.WriteString(e.w, s); err != nil {
		e.err = err
	}
}

func (e *errWriter) num(v int64) {
	e.buf = strconv.AppendInt(e.buf[:0], v, 10)
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
	}
}

// micros renders nanoseconds as microseconds with sub-µs precision
// (Chrome's ts/dur unit is a double in µs).
func (e *errWriter) micros(ns int64) {
	e.buf = strconv.AppendInt(e.buf[:0], ns/1000, 10)
	if rem := ns % 1000; rem != 0 {
		if rem < 0 {
			rem = -rem
		}
		e.buf = append(e.buf, '.')
		e.buf = append(e.buf, byte('0'+rem/100), byte('0'+rem/10%10), byte('0'+rem%10))
	}
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
	}
}
