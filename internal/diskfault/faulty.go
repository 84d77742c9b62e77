package diskfault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Injected error sentinels; callers classify with errors.Is.
var (
	// ErrCrashed is returned by every operation after the simulated
	// power cut fires.
	ErrCrashed = errors.New("diskfault: simulated power failure")
	// ErrInjectedWrite is a transient injected write error.
	ErrInjectedWrite = errors.New("diskfault: injected write error")
	// ErrInjectedSync is a transient injected fsync error.
	ErrInjectedSync = errors.New("diskfault: injected sync error")
	// ErrInjectedRename is a transient injected rename error.
	ErrInjectedRename = errors.New("diskfault: injected rename error")
	// ErrNoSpace is an injected out-of-space error (after a partial
	// write, like the real thing).
	ErrNoSpace = errors.New("diskfault: injected ENOSPC (no space left on device)")
)

// Options configure a Faulty filesystem. All probabilities are per
// operation and drawn from the seeded RNG, so a run is reproducible
// given the same seed and operation order.
type Options struct {
	// Seed feeds the RNG (0 uses a fixed default).
	Seed int64
	// WriteErrProb is the probability a Write fails outright (nothing
	// written).
	WriteErrProb float64
	// SyncErrProb is the probability a Sync or SyncDir fails (and does
	// not make anything durable).
	SyncErrProb float64
	// RenameErrProb is the probability a Rename fails (not performed).
	RenameErrProb float64
	// ENOSPCProb is the probability a Write hits ENOSPC after writing a
	// random prefix.
	ENOSPCProb float64
	// PowerCut enables durability tracking: Crash (or the CrashAfter
	// trigger) rolls the on-disk tree back to the fsync-covered state.
	PowerCut bool
	// TornWrites lets Crash keep a garbled prefix of the unsynced tail
	// of a file instead of discarding it cleanly — the torn-block
	// behaviour of real disks. Checksummed formats must detect this.
	TornWrites bool
	// LieSyncSubstr, when non-empty, makes Sync/SyncDir on any path
	// containing the substring succeed WITHOUT recording durability —
	// a deliberate reintroduction of the non-durable-rename bug class,
	// used to prove the crash harness can detect it.
	LieSyncSubstr string
}

// metaOp kinds in the durability journal.
const (
	opCreate byte = iota + 1
	opRename
	opRemove
)

// metaOp is one not-yet-durable directory-level change.
type metaOp struct {
	kind byte
	// dir is the directory whose SyncDir makes the op durable.
	dir string
	// path is the created/removed path, or the rename destination.
	path string
	// old is the rename source.
	old string
	// saved holds overwritten or removed content for crash rollback.
	saved    []byte
	hasSaved bool
}

// fileState tracks one path's durable length.
type fileState struct {
	size   int64 // current length as written through this FS
	synced int64 // length covered by the last successful fsync
}

// Faulty wraps a base filesystem with fault injection and power-cut
// simulation. Safe for concurrent use.
type Faulty struct {
	base FS
	opts Options

	mu         sync.Mutex
	rng        *rand.Rand
	crashed    bool
	crashAfter int64 // countdown of mutating ops until crash; 0 = disarmed
	files      map[string]*fileState
	journal    []metaOp
	injected   int
	ops        int64
}

// NewFaulty wraps base (usually OS()) with the configured faults.
func NewFaulty(base FS, opts Options) *Faulty {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Faulty{
		base:  base,
		opts:  opts,
		rng:   rand.New(rand.NewSource(seed)),
		files: make(map[string]*fileState),
	}
}

// SetCrashAfter arms the power cut: the n-th subsequent mutating
// operation (write, sync, rename, remove, create) fails with
// ErrCrashed and every operation after it refuses. n <= 0 disarms.
func (f *Faulty) SetCrashAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAfter = n
}

// Crashed reports whether the power cut has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns how many mutating operations have been issued (useful
// for sizing SetCrashAfter windows).
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// InjectedErrors returns how many transient errors were injected.
func (f *Faulty) InjectedErrors() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// countOp ticks the crash countdown. Returns true when this operation
// is the one the power cut interrupts (or the cut already happened).
// Caller holds f.mu.
func (f *Faulty) countOp() bool {
	if f.crashed {
		return true
	}
	f.ops++
	if f.crashAfter > 0 {
		f.crashAfter--
		if f.crashAfter == 0 {
			f.crashed = true
			return true
		}
	}
	return false
}

// roll draws an injection decision. Caller holds f.mu.
func (f *Faulty) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if f.rng.Float64() < p {
		f.injected++
		return true
	}
	return false
}

func (f *Faulty) lying(path string) bool {
	return f.opts.LieSyncSubstr != "" && strings.Contains(path, f.opts.LieSyncSubstr)
}

// state returns (creating if needed) the durability state for path.
// Caller holds f.mu.
func (f *Faulty) state(path string, size int64) *fileState {
	st := f.files[path]
	if st == nil {
		st = &fileState{size: size, synced: size}
		f.files[path] = st
	}
	return st
}

// snapshot reads a file's current content through the base FS for
// crash rollback. Caller holds f.mu.
func (f *Faulty) snapshot(path string) ([]byte, bool) {
	st, err := f.base.Stat(path)
	if err != nil {
		return nil, false
	}
	file, err := f.base.Open(path)
	if err != nil {
		return nil, false
	}
	defer file.Close()
	data, err := ReadSized(file, st.Size(), nil)
	return data, err == nil
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC) != 0
	var existed bool
	var size int64
	if f.opts.PowerCut && writable {
		if st, err := f.base.Stat(name); err == nil {
			existed = true
			size = st.Size()
		}
	}
	bf, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &faultyFile{fs: f, f: bf, path: name}
	if f.opts.PowerCut && writable {
		switch {
		case !existed:
			// A brand-new file: both the entry and all data are volatile.
			f.journal = append(f.journal, metaOp{kind: opCreate, dir: filepath.Dir(name), path: name})
			f.files[name] = &fileState{}
			ff.st = f.files[name]
		case flag&os.O_TRUNC != 0:
			// Truncating an existing file destroys durable content: save
			// it so a crash before the replacing dir sync can restore it.
			saved, ok := f.snapshot(name)
			f.journal = append(f.journal, metaOp{kind: opCreate, dir: filepath.Dir(name), path: name, saved: saved, hasSaved: ok})
			f.files[name] = &fileState{}
			ff.st = f.files[name]
		default:
			ff.st = f.state(name, size)
		}
		if flag&os.O_APPEND != 0 {
			ff.off = ff.st.size
		}
	}
	return ff, nil
}

func (f *Faulty) Open(name string) (File, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.base.Open(filepath.Clean(name))
}

func (f *Faulty) Create(name string) (File, error) {
	return f.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	if f.countOp() {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	bf, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	name := filepath.Clean(bf.Name())
	f.mu.Lock()
	defer f.mu.Unlock()
	ff := &faultyFile{fs: f, f: bf, path: name}
	if f.opts.PowerCut {
		f.journal = append(f.journal, metaOp{kind: opCreate, dir: filepath.Dir(name), path: name})
		f.files[name] = &fileState{}
		ff.st = f.files[name]
	}
	return ff, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	f.mu.Lock()
	if f.countOp() {
		f.mu.Unlock()
		return ErrCrashed
	}
	if f.roll(f.opts.RenameErrProb) {
		f.mu.Unlock()
		return fmt.Errorf("rename %s -> %s: %w", oldpath, newpath, ErrInjectedRename)
	}
	op := metaOp{kind: opRename, dir: filepath.Dir(newpath), path: newpath, old: oldpath}
	if f.opts.PowerCut {
		if _, err := f.base.Stat(newpath); err == nil {
			op.saved, op.hasSaved = f.snapshot(newpath)
		}
	}
	f.mu.Unlock()
	if err := f.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opts.PowerCut {
		f.journal = append(f.journal, op)
		if st, ok := f.files[oldpath]; ok {
			f.files[newpath] = st
			delete(f.files, oldpath)
		} else if st, err := f.base.Stat(newpath); err == nil {
			f.files[newpath] = &fileState{size: st.Size(), synced: st.Size()}
		}
	}
	return nil
}

func (f *Faulty) Remove(name string) error {
	name = filepath.Clean(name)
	f.mu.Lock()
	if f.countOp() {
		f.mu.Unlock()
		return ErrCrashed
	}
	var op metaOp
	if f.opts.PowerCut {
		op = metaOp{kind: opRemove, dir: filepath.Dir(name), path: name}
		op.saved, op.hasSaved = f.snapshot(name)
	}
	f.mu.Unlock()
	if err := f.base.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opts.PowerCut {
		f.journal = append(f.journal, op)
		delete(f.files, name)
	}
	return nil
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.base.MkdirAll(path, perm)
}

func (f *Faulty) Stat(name string) (os.FileInfo, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.base.Stat(name)
}

func (f *Faulty) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	if f.countOp() {
		f.mu.Unlock()
		return ErrCrashed
	}
	if f.roll(f.opts.SyncErrProb) {
		f.mu.Unlock()
		return fmt.Errorf("syncdir %s: %w", dir, ErrInjectedSync)
	}
	if f.lying(dir) {
		f.mu.Unlock()
		return nil // lies: reports success, journal keeps the ops volatile
	}
	if f.opts.PowerCut {
		// Entries in dir are now durable: drop their journal records.
		kept := f.journal[:0]
		for _, op := range f.journal {
			if op.dir != dir {
				kept = append(kept, op)
			}
		}
		f.journal = kept
	}
	f.mu.Unlock()
	return f.base.SyncDir(dir)
}

// Crash applies the simulated power cut to the real tree: every
// journaled (non-durable) create/rename/remove is rolled back in
// reverse order, then every tracked file is truncated to its last
// fsynced length (optionally keeping a torn prefix of the unsynced
// tail). After Crash the filesystem refuses all further operations;
// recovery code reopens the tree through a fresh FS.
func (f *Faulty) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
	if !f.opts.PowerCut {
		return nil
	}
	// Metadata rollback, newest first.
	for i := len(f.journal) - 1; i >= 0; i-- {
		op := f.journal[i]
		switch op.kind {
		case opCreate:
			if op.hasSaved {
				// A durable file was truncated/overwritten in place;
				// restore the old durable content.
				if err := WriteFile(f.base, op.path, op.saved, 0o644); err != nil {
					return fmt.Errorf("diskfault: crash rollback restore %s: %w", op.path, err)
				}
				f.files[op.path] = &fileState{size: int64(len(op.saved)), synced: int64(len(op.saved))}
			} else {
				f.base.Remove(op.path)
				delete(f.files, op.path)
			}
		case opRename:
			if _, err := f.base.Stat(op.path); err == nil {
				if err := f.base.Rename(op.path, op.old); err != nil {
					return fmt.Errorf("diskfault: crash rollback rename %s: %w", op.path, err)
				}
				if st, ok := f.files[op.path]; ok {
					f.files[op.old] = st
					delete(f.files, op.path)
				}
			}
			if op.hasSaved {
				if err := WriteFile(f.base, op.path, op.saved, 0o644); err != nil {
					return fmt.Errorf("diskfault: crash rollback restore %s: %w", op.path, err)
				}
			}
		case opRemove:
			if op.hasSaved {
				if err := f.base.MkdirAll(op.dir, 0o755); err != nil {
					return fmt.Errorf("diskfault: crash rollback mkdir %s: %w", op.dir, err)
				}
				if err := WriteFile(f.base, op.path, op.saved, 0o644); err != nil {
					return fmt.Errorf("diskfault: crash rollback resurrect %s: %w", op.path, err)
				}
			}
		}
	}
	f.journal = nil
	// Data rollback: discard everything beyond the fsync horizon.
	for path, st := range f.files {
		real, err := f.base.Stat(path)
		if err != nil {
			continue // rolled back above, or never materialized
		}
		if real.Size() <= st.synced {
			continue
		}
		keep := st.synced
		if f.opts.TornWrites && real.Size() > st.synced && f.rng.Intn(2) == 0 {
			// A torn tail: some sectors of the in-flight write hit the
			// platter. Keep a random prefix and garble one byte in it so
			// checksummed formats must catch it.
			keep = st.synced + f.rng.Int63n(real.Size()-st.synced+1)
		}
		bf, err := f.base.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("diskfault: crash truncate open %s: %w", path, err)
		}
		if err := bf.Truncate(keep); err != nil {
			bf.Close()
			return fmt.Errorf("diskfault: crash truncate %s: %w", path, err)
		}
		if keep > st.synced {
			// Garble one byte inside the torn region.
			pos := st.synced + f.rng.Int63n(keep-st.synced)
			if _, err := bf.Seek(pos, io.SeekStart); err == nil {
				bf.Write([]byte{byte(f.rng.Intn(256))})
			}
		}
		bf.Close()
	}
	f.files = make(map[string]*fileState)
	return nil
}

// faultyFile wraps one handle, tracking the write frontier.
type faultyFile struct {
	fs   *Faulty
	f    File
	path string
	st   *fileState // nil unless power-cut tracking is on
	off  int64
}

func (ff *faultyFile) Name() string { return ff.f.Name() }

func (ff *faultyFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	crashed := ff.fs.crashed
	ff.fs.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	n, err := ff.f.Read(p)
	ff.off += int64(n)
	return n, err
}

func (ff *faultyFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.off = pos
	}
	return pos, err
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	if fs.countOp() {
		// The power dies during this write: a random prefix may reach
		// the disk surface before the cut.
		n := 0
		if len(p) > 0 {
			n = fs.rng.Intn(len(p) + 1)
		}
		fs.mu.Unlock()
		if n > 0 {
			ff.f.Write(p[:n])
			fs.mu.Lock()
			if ff.st != nil {
				if end := ff.off + int64(n); end > ff.st.size {
					ff.st.size = end
				}
			}
			fs.mu.Unlock()
		}
		return 0, ErrCrashed
	}
	if fs.roll(fs.opts.WriteErrProb) {
		fs.mu.Unlock()
		return 0, fmt.Errorf("write %s: %w", ff.path, ErrInjectedWrite)
	}
	if fs.roll(fs.opts.ENOSPCProb) {
		n := 0
		if len(p) > 0 {
			n = fs.rng.Intn(len(p))
		}
		fs.mu.Unlock()
		if n > 0 {
			n, _ = ff.f.Write(p[:n])
			fs.mu.Lock()
			ff.off += int64(n)
			if ff.st != nil && ff.off > ff.st.size {
				ff.st.size = ff.off
			}
			fs.mu.Unlock()
		}
		return n, fmt.Errorf("write %s: %w", ff.path, ErrNoSpace)
	}
	fs.mu.Unlock()
	n, err := ff.f.Write(p)
	fs.mu.Lock()
	ff.off += int64(n)
	if ff.st != nil && ff.off > ff.st.size {
		ff.st.size = ff.off
	}
	fs.mu.Unlock()
	return n, err
}

func (ff *faultyFile) Truncate(size int64) error {
	fs := ff.fs
	fs.mu.Lock()
	if fs.countOp() {
		fs.mu.Unlock()
		return ErrCrashed
	}
	fs.mu.Unlock()
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	fs.mu.Lock()
	if ff.st != nil {
		ff.st.size = size
		if ff.st.synced > size {
			ff.st.synced = size
		}
	}
	fs.mu.Unlock()
	return nil
}

func (ff *faultyFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	if fs.countOp() {
		fs.mu.Unlock()
		return ErrCrashed
	}
	if fs.roll(fs.opts.SyncErrProb) {
		fs.mu.Unlock()
		return fmt.Errorf("sync %s: %w", ff.path, ErrInjectedSync)
	}
	if fs.lying(ff.path) {
		fs.mu.Unlock()
		return nil // lies: data stays volatile
	}
	fs.mu.Unlock()
	if err := ff.f.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	if ff.st != nil {
		ff.st.synced = ff.st.size
	}
	fs.mu.Unlock()
	return nil
}

func (ff *faultyFile) Close() error { return ff.f.Close() }
