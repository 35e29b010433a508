package gthinker

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gthinkerqc/internal/store"
)

// diskAccount tracks spill-disk usage of one machine (Table 2's
// "Disk" column and the paper's 22 TB-overflow anecdote), on both the
// write and the refill side. An optional parent account tracks the
// footprint across machines SHARING a disk: an in-process cluster
// parents every runtime's account, so its PeakSpillBytes is the true
// peak of the process-wide sum (summing per-machine peaks would
// overstate a peak at t=1 on one machine and t=2 on another);
// separate worker processes have separate disks and report alone.
type diskAccount struct {
	written atomic.Int64 // total bytes ever written
	current atomic.Int64 // bytes currently on disk
	peak    atomic.Int64 // high-water mark of current
	files   atomic.Int64 // total files ever written
	read    atomic.Int64 // total bytes read back by refills
	refills atomic.Int64 // total batch refills

	parent *diskAccount // shared-disk footprint tracker, or nil
}

func (a *diskAccount) add(n int64) {
	a.written.Add(n)
	raiseTo(&a.peak, a.current.Add(n))
	a.files.Add(1)
	if a.parent != nil {
		raiseTo(&a.parent.peak, a.parent.current.Add(n))
	}
}

func raiseTo(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// resetJobCounters zeroes the per-job spill counters between jobs.
// The parent pointer (process-wide footprint) is preserved; current
// is already zero after ResetJob's removeAll sweep, but is cleared
// defensively so an accounting slip cannot compound across jobs.
func (a *diskAccount) resetJobCounters() {
	a.written.Store(0)
	a.current.Store(0)
	a.peak.Store(0)
	a.files.Store(0)
	a.read.Store(0)
	a.refills.Store(0)
}

func (a *diskAccount) remove(n int64) {
	a.current.Add(-n)
	if a.parent != nil {
		a.parent.current.Add(-n)
	}
}

// spillList is one task-file list (Lsmall of a worker or Lbig of a
// machine): batches of tasks encoded to disk, refilled LIFO so the
// most recently deferred work resumes first. Batches use the raw
// columnar GQS1 format (internal/store), payloads encoded by codec.
//
// Writes are double-buffered: spill() encodes the batch on the calling
// mining thread, then hands the bytes to a background goroutine and
// returns — so encoding batch k+1 overlaps the disk write of batch k,
// and the worker resumes mining without waiting for the write syscall.
// At most one write per list is in flight (the slot channel), which
// bounds retained memory to one encoded batch and keeps file order
// deterministic. A refill or removeAll that reaches a still-pending
// file waits on its done channel; an asynchronous write failure is
// surfaced by the next spill() or by the refill that pops the failed
// entry — either way the run fails, exactly like a synchronous error.
type spillList struct {
	mu    sync.Mutex
	dir   string
	name  string
	seq   int
	files []*spillFile
	werr  error // first async write failure, surfaced on the next spill
	acct  *diskAccount
	codec TaskCodec
	nv    int // vertex count every decoded pull must stay below

	slot chan struct{} // capacity 1: the single in-flight write token
}

type spillFile struct {
	path  string
	size  int64 // valid once done is closed (writer fills it)
	count int
	done  chan struct{} // closed when the write-behind lands
	err   error         // write outcome; read only after done
}

func newSpillList(dir, name string, acct *diskAccount, codec TaskCodec, numVertices int) *spillList {
	l := &spillList{dir: dir, name: name, acct: acct, codec: codec, nv: numVertices,
		slot: make(chan struct{}, 1)}
	l.slot <- struct{}{}
	return l
}

// sync waits for any in-flight write-behind to land and returns the
// list's sticky write error: after sync, every tracked batch is
// durable (or the failure is reported). Tests and sequencing points
// that need a quiesced list use it; the hot paths never do.
func (l *spillList) sync() error {
	<-l.slot
	l.slot <- struct{}{}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// count returns the number of spilled tasks.
func (l *spillList) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, f := range l.files {
		n += f.count
	}
	return n
}

// batchEncoders recycles columnar encode buffers across spills (and
// across lists — Lbig spills race with Lsmall spills of every worker).
var batchEncoders = sync.Pool{New: func() any { return new(store.BatchEncoder) }}

// spill encodes tasks as one batch and schedules the file write behind
// the caller. By the time it returns the batch is tracked (count and
// refill see it) but the bytes may still be in flight; see spillList.
func (l *spillList) spill(tasks []*Task) error {
	if len(tasks) == 0 {
		return nil
	}
	enc := batchEncoders.Get().(*store.BatchEncoder)
	data, err := encodeTaskBatch(enc, tasks, l.codec)
	if err != nil {
		batchEncoders.Put(enc)
		return fmt.Errorf("gthinker: spill: %w", err)
	}

	// Wait for the previous write to land (the encode above already
	// overlapped it), then surface its error if it failed: the batch
	// that just encoded is dropped, exactly as if this write had failed
	// synchronously — the caller aborts the run either way.
	<-l.slot
	l.mu.Lock()
	if err := l.werr; err != nil {
		l.mu.Unlock()
		l.slot <- struct{}{}
		batchEncoders.Put(enc)
		return err
	}
	l.seq++
	path := filepath.Join(l.dir, fmt.Sprintf("%s-%06d.gqs", l.name, l.seq))
	sf := &spillFile{path: path, count: len(tasks), done: make(chan struct{})}
	l.files = append(l.files, sf)
	l.mu.Unlock()

	go func() {
		err := os.WriteFile(path, data, 0o644)
		// data aliases enc's buffer: recycle only after the write.
		batchEncoders.Put(enc)
		if err != nil {
			// A failed write can leave a partial file that nothing
			// tracks; unlink it so the shutdown sweep's empty-SpillDir
			// guarantee holds even on I/O errors (e.g. a full disk).
			os.Remove(path)
			sf.err = fmt.Errorf("gthinker: spill: %w", err)
			l.mu.Lock()
			if l.werr == nil {
				l.werr = sf.err
			}
			l.mu.Unlock()
		} else {
			sf.size = int64(len(data))
			l.acct.add(sf.size)
		}
		close(sf.done)
		l.slot <- struct{}{}
	}()
	return nil
}

// encodeTaskBatch encodes tasks as one GQS1 batch via codec — the one
// serialization shared by spill files, steals (every Transport ships
// stolen batches as these exact bytes), and batch refills.
// The returned bytes alias enc's buffer and are valid until its next
// Reset.
func encodeTaskBatch(enc *store.BatchEncoder, tasks []*Task, codec TaskCodec) ([]byte, error) {
	enc.Reset()
	for _, t := range tasks {
		buf := enc.BeginRecord()
		buf = store.AppendU64(buf, t.ID)
		buf = store.AppendU32(buf, uint32(len(t.Pulls)))
		buf = store.AppendU32s(buf, t.Pulls)
		if t.Payload == nil {
			buf = store.AppendU32(buf, 0)
		} else {
			buf = store.AppendU32(buf, 1)
			lenOff := len(buf)
			buf = store.AppendU32(buf, 0) // payload length, patched below
			var err error
			buf, err = codec.AppendTaskPayload(buf, t.Payload)
			if err != nil {
				return nil, fmt.Errorf("gthinker: encode task: %w", err)
			}
			binary.LittleEndian.PutUint32(buf[lenOff:], uint32(len(buf)-lenOff-4))
		}
		enc.EndRecord(buf)
	}
	return enc.Finish(), nil
}

// decodeTaskBatch decodes one GQS1 batch (read from a spill file or
// received as an opTaskSteal frame) back into tasks. Decoded slices
// alias data, which the tasks keep alive; each record's regions belong
// to exactly one task, so in-place mutation stays safe. A pull at or
// past numVertices is corruption: resolve would index the graph with
// it.
func decodeTaskBatch(data []byte, codec TaskCodec, numVertices int) ([]*Task, error) {
	d, err := store.DecodeBatch(data)
	if err != nil {
		return nil, err
	}
	tasks := make([]*Task, 0, d.Count())
	for {
		rec, err := d.Next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return tasks, nil
		}
		c := store.NewCursor(rec)
		t := &Task{ID: c.U64()}
		t.Pulls = c.U32s(int(c.U32()))
		for _, id := range t.Pulls {
			if int64(id) >= int64(numVertices) {
				return nil, fmt.Errorf("gthinker: decode task: pull %d out of range [0,%d)", id, numVertices)
			}
		}
		hasPayload := c.U32()
		if hasPayload != 0 {
			payload := c.Bytes(int(c.U32()))
			if c.Err() == nil {
				t.Payload, err = codec.DecodeTaskPayload(payload)
				if err != nil {
					return nil, fmt.Errorf("gthinker: decode task: %w", err)
				}
			}
		}
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("gthinker: decode task: %w", err)
		}
		if c.Remaining() != 0 {
			return nil, fmt.Errorf("gthinker: decode task: %d trailing bytes", c.Remaining())
		}
		tasks = append(tasks, t)
	}
}

// refill pops the newest batch file, decodes its tasks, and unlinks
// the file; ok=false when the list is empty. A popped file whose
// write-behind has not landed yet is waited for first — LIFO refills
// chase the freshest spill, so this wait is the write of the batch
// spilled moments ago, not a backlog.
func (l *spillList) refill() (tasks []*Task, ok bool, err error) {
	l.mu.Lock()
	if len(l.files) == 0 {
		l.mu.Unlock()
		return nil, false, nil
	}
	sf := l.files[len(l.files)-1]
	l.files = l.files[:len(l.files)-1]
	l.mu.Unlock()

	if sf.done != nil {
		<-sf.done
		if sf.err != nil {
			// The write never landed: there is no file to re-track and
			// nothing was accounted — just surface the failure.
			return nil, false, sf.err
		}
	}
	tasks, err = readColumnar(sf.path, l.codec, l.nv)
	if err == nil {
		err = os.Remove(sf.path)
	}
	if err != nil {
		// Re-track the file so the shutdown sweep (removeAll) still
		// unlinks it and the disk accounting stays truthful; the run is
		// failing on this error anyway.
		l.mu.Lock()
		l.files = append(l.files, sf)
		l.mu.Unlock()
		return nil, false, err
	}
	l.acct.remove(sf.size)
	l.acct.read.Add(sf.size)
	l.acct.refills.Add(1)
	return tasks, true, nil
}

// readColumnar loads one GQS1 batch: a single sequential read, then
// per task a header walk plus pointer fix-up (decoded arrays alias the
// batch buffer, which the tasks keep alive).
func readColumnar(path string, codec TaskCodec, numVertices int) ([]*Task, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gthinker: refill: %w", err)
	}
	tasks, err := decodeTaskBatch(data, codec, numVertices)
	if err != nil {
		return nil, fmt.Errorf("gthinker: refill %s: %w", path, err)
	}
	return tasks, nil
}

// removeAll unlinks every remaining batch file (engine shutdown: a
// cancelled or failed run can leave spilled tasks behind; a clean run
// leaves nothing), draining any in-flight write-behind first so no
// write can land after the sweep. Errors are ignored — the files are
// best-effort temporaries at this point.
func (l *spillList) removeAll() {
	l.mu.Lock()
	files := l.files
	l.files = nil
	l.mu.Unlock()
	for _, f := range files {
		if f.done != nil {
			<-f.done
			if f.err != nil {
				continue // never landed: no file, nothing accounted
			}
		}
		os.Remove(f.path)
		l.acct.remove(f.size)
	}
}
