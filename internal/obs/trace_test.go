package obs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testSpanTime(i int) time.Time {
	return time.Unix(1700000000, int64(i)*1000)
}

func TestTracerRecordSnapshot(t *testing.T) {
	tr := NewTracer(2, []int32{4, 5, -3}, 8)
	tr.Record(0, KindCompute, testSpanTime(1), 10*time.Microsecond, 3, 0)
	tr.Record(1, KindFetch, testSpanTime(0), 5*time.Microsecond, 1, 7)
	tr.Record(2, KindStealRecv, testSpanTime(2), 0, 32, 0)
	snap := tr.Snapshot()
	if len(snap.Spans) != 3 || snap.Dropped != 0 {
		t.Fatalf("snapshot = %d spans, %d dropped; want 3, 0", len(snap.Spans), snap.Dropped)
	}
	// Sorted by start time across tracks.
	if snap.Spans[0].Kind != KindFetch || snap.Spans[1].Kind != KindCompute || snap.Spans[2].Kind != KindStealRecv {
		t.Fatalf("spans not time-sorted: %v", snap.Spans)
	}
	s := snap.Spans[1]
	if s.Pid != 2 || s.Tid != 4 || s.Arg1 != 3 || s.Dur != int64(10*time.Microsecond) {
		t.Fatalf("compute span = %+v", s)
	}
	if rec, drop := tr.Counts(); rec != 3 || drop != 0 {
		t.Fatalf("counts = %d, %d; want 3, 0", rec, drop)
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(0, []int32{0}, 4)
	for i := 0; i < 10; i++ {
		tr.Record(0, KindCompute, testSpanTime(i), 0, uint64(i), 0)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(snap.Spans))
	}
	if snap.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.Dropped)
	}
	// The ring keeps the MOST RECENT spans, oldest first.
	for i, s := range snap.Spans {
		if s.Arg1 != uint64(6+i) {
			t.Fatalf("span %d arg1 = %d, want %d", i, s.Arg1, 6+i)
		}
	}
	if rec, drop := tr.Counts(); rec != 10 || drop != 6 {
		t.Fatalf("counts = %d, %d; want 10, 6", rec, drop)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(0, KindCompute, time.Time{}, 0, 0, 0)
	if rec, drop := tr.Counts(); rec != 0 || drop != 0 {
		t.Fatalf("nil counts = %d, %d", rec, drop)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 0 || snap.Dropped != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	// Out-of-range tracks must not panic either.
	real := NewTracer(0, []int32{0}, 4)
	real.Record(-1, KindCompute, time.Time{}, 0, 0, 0)
	real.Record(7, KindCompute, time.Time{}, 0, 0, 0)
	if rec, _ := real.Counts(); rec != 0 {
		t.Fatalf("out-of-range records counted: %d", rec)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(0, []int32{0, 1}, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(g%2, KindCompute, testSpanTime(i), 0, uint64(i), 0)
			}
		}(g)
	}
	wg.Wait()
	if rec, drop := tr.Counts(); rec != 400 || drop != 272 {
		t.Fatalf("counts = %d, %d; want 400, 272", rec, drop)
	}
	if snap := tr.Snapshot(); len(snap.Spans) != 128 {
		t.Fatalf("retained %d spans, want 128", len(snap.Spans))
	}
}

func TestTraceWireRoundtrip(t *testing.T) {
	in := &Trace{
		Dropped: 9,
		Spans: []Span{
			{Kind: KindFetch, Pid: 1, Tid: 3, Start: 1700000000123456789, Dur: 4500, Arg1: 2, Arg2: 17},
			{Kind: KindRecover, Pid: -1, Tid: -1, Start: 1700000001000000000, Dur: 0, Arg1: 1},
		},
	}
	data := AppendTrace(nil, in)
	out, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped != in.Dropped || len(out.Spans) != len(in.Spans) {
		t.Fatalf("roundtrip = %+v", out)
	}
	for i := range in.Spans {
		if in.Spans[i] != out.Spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, in.Spans[i], out.Spans[i])
		}
	}
	// Every truncation must fail loudly, never decode garbage.
	for cut := 1; cut <= len(data); cut++ {
		if _, err := DecodeTrace(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncated payload (-%d bytes) decoded", cut)
		}
	}
	// Trailing bytes are rejected too.
	if _, err := DecodeTrace(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Empty / nil traces encode and decode.
	out, err = DecodeTrace(AppendTrace(nil, nil))
	if err != nil || len(out.Spans) != 0 {
		t.Fatalf("nil trace roundtrip: %v, %+v", err, out)
	}
}

func TestMerge(t *testing.T) {
	a := &Trace{Spans: []Span{{Start: 5}, {Start: 1}}, Dropped: 2}
	b := &Trace{Spans: []Span{{Start: 3}}, Dropped: 1}
	m := Merge(a, nil, b)
	if len(m.Spans) != 3 || m.Dropped != 3 {
		t.Fatalf("merge = %+v", m)
	}
	for i := 1; i < len(m.Spans); i++ {
		if m.Spans[i-1].Start > m.Spans[i].Start {
			t.Fatalf("merge not sorted: %+v", m.Spans)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Kind: KindCompute, Pid: 0, Tid: 1, Start: 1700000000000001500, Dur: 2750, Arg1: 4},
		{Kind: KindFetch, Pid: 1, Tid: 2, Start: 1700000000000002000, Dur: 1000, Arg1: 0, Arg2: 9},
		{Kind: KindRecover, Pid: -1, Tid: -1, Start: 1700000000000003000, Dur: 0, Arg1: 1},
		{Kind: KindStealRecv, Pid: 1, Tid: -2, Start: 1700000000000004000, Dur: 0, Arg1: 32},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Pid < 0 || ev.Tid < 0 {
				t.Fatalf("negative pid/tid leaked into chrome event: %+v", ev)
			}
			if ev.Name == "compute" {
				if ev.Dur != 2.75 || ev.Ts != 1700000000000001.5 {
					t.Fatalf("compute ts/dur = %v/%v", ev.Ts, ev.Dur)
				}
				if ev.Args["subtasks"] != float64(4) {
					t.Fatalf("compute args = %v", ev.Args)
				}
			}
		case "M":
			metas++
		}
	}
	if spans != 4 {
		t.Fatalf("%d span events, want 4", spans)
	}
	// 3 processes + 4 threads named.
	if metas != 7 {
		t.Fatalf("%d metadata events, want 7", metas)
	}
	// An empty trace is still a valid document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var empty map[string]any
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// BenchmarkRecordDisabled measures the tracing-off fast path: a nil
// tracer must cost one branch, nothing else — this is what rides in
// the engine's compute loop when -trace is not given.
func BenchmarkRecordDisabled(b *testing.B) {
	var tr *Tracer
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(0, KindCompute, start, 0, 1, 0)
	}
}

// BenchmarkRecordEnabled is the cost when tracing IS on (ring write
// under an uncontended mutex).
func BenchmarkRecordEnabled(b *testing.B) {
	tr := NewTracer(0, []int32{0}, DefaultTrackCap)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(0, KindCompute, start, 0, 1, 0)
	}
}

// TestWireGolden pins the OTR1 bytes a machine ships to the coordinator
// at trace collection. Each row must encode to its bytes and decode
// back to its value.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
		hex  string
	}{
		{"empty", &Trace{Spans: []Span{}}, "4f545231" + "01000000" + "0000000000000000" + "00000000"},
		{"spans", &Trace{Dropped: 9, Spans: []Span{
			{Kind: KindFetch, Pid: 1, Tid: 3, Start: 1700000000123456789, Dur: 4500, Arg1: 2, Arg2: 17},
			{Kind: KindResolve, Pid: -1, Tid: -2, Start: -5, Dur: 1 << 40, Arg1: 1<<64 - 1},
		}}, "4f545231" + "01000000" + "0900000000000000" + "02000000" +
			"04" + "01000000" + "03000000" + "15cd853dfe9c9717" + "9411000000000000" + "0200000000000000" + "1100000000000000" +
			"0a" + "ffffffff" + "feffffff" + "fbffffffffffffff" + "0000000000010000" + "ffffffffffffffff" + "0000000000000000"},
	} {
		if got := hex.EncodeToString(AppendTrace(nil, tc.tr)); got != tc.hex {
			t.Errorf("%s: OTR1 bytes changed:\n got  %s\n want %s", tc.name, got, tc.hex)
		}
		data, _ := hex.DecodeString(tc.hex)
		if tr, err := DecodeTrace(data); err != nil || !reflect.DeepEqual(tr, tc.tr) {
			t.Errorf("%s: golden bytes decode to %+v, %v", tc.name, tr, err)
		}
	}
}
