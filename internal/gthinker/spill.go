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
// spill writes its batch on the calling thread and holds mu across the
// write, so one write per list is in flight, files are listed in
// sequence order, and every listed file is complete.
type spillList struct {
	mu    sync.Mutex
	dir   string
	name  string
	seq   int
	files []spillFile
	acct  *diskAccount
	codec TaskCodec
	nv    int // vertex count every decoded pull must stay below
}

type spillFile struct {
	path  string
	size  int64
	count int
}

func newSpillList(dir, name string, acct *diskAccount, codec TaskCodec, numVertices int) *spillList {
	return &spillList{dir: dir, name: name, acct: acct, codec: codec, nv: numVertices}
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

// spill encodes tasks as one batch, outside the lock, and writes it to
// the list's next file. A failed write leaves no file and no
// accounting behind; the caller fails the run on the error.
func (l *spillList) spill(tasks []*Task) error {
	if len(tasks) == 0 {
		return nil
	}
	enc := batchEncoders.Get().(*store.BatchEncoder)
	defer batchEncoders.Put(enc) // data aliases enc's buffer
	data, err := encodeTaskBatch(enc, tasks, l.codec)
	if err != nil {
		return fmt.Errorf("gthinker: spill: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	path := filepath.Join(l.dir, fmt.Sprintf("%s-%06d.gqs", l.name, l.seq))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		// A failed write can leave a partial file that nothing tracks;
		// unlink it so the shutdown sweep's empty-SpillDir guarantee
		// holds even on I/O errors (e.g. a full disk).
		os.Remove(path)
		return fmt.Errorf("gthinker: spill: %w", err)
	}
	l.acct.add(int64(len(data)))
	l.files = append(l.files, spillFile{path: path, size: int64(len(data)), count: len(tasks)})
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
// the file; ok=false when the list is empty.
func (l *spillList) refill() (tasks []*Task, ok bool, err error) {
	l.mu.Lock()
	if len(l.files) == 0 {
		l.mu.Unlock()
		return nil, false, nil
	}
	sf := l.files[len(l.files)-1]
	l.files = l.files[:len(l.files)-1]
	l.mu.Unlock()

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
// leaves nothing). Errors are ignored — the files are best-effort
// temporaries at this point.
func (l *spillList) removeAll() {
	l.mu.Lock()
	files := l.files
	l.files = nil
	l.mu.Unlock()
	for _, f := range files {
		os.Remove(f.path)
		l.acct.remove(f.size)
	}
}
