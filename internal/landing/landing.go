// Package landing manages Bistro's landing zones (SIGMOD'11 §4.1):
// the directories where data providers deposit raw files. Cooperating
// sources announce each deposit through the notification protocol, so
// ingest is immediate; non-cooperating sources just drop files, so a
// fallback scanner polls the landing directory. Because ingest moves
// files out of landing immediately, the directory stays small and the
// fallback scan stays cheap — this is how the paper achieves
// sub-minute propagation from over a hundred non-cooperating sources.
package landing

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bistro/internal/clock"
	"bistro/internal/diskfault"
)

// walkDir is filepath.WalkDir behind a seam so tests can inject walk
// errors (wrapped not-exist shapes in particular).
var walkDir = filepath.WalkDir

// Ingest consumes one deposited file. It receives the path relative to
// the landing directory and must move or remove the file (the manager
// does not touch it afterwards).
type Ingest func(relPath string) error

// Manager owns one landing directory.
type Manager struct {
	dir    string
	ingest Ingest
	clk    clock.Clock
	// ScanInterval is the fallback poll cadence for non-cooperating
	// sources (0 disables the scanner).
	scanInterval time.Duration
	// FS is the filesystem seam for deposits; defaults to the real
	// filesystem. Deposits are not fsynced — a file is the provider's
	// responsibility until ingest acknowledges it (docs/RECOVERY.md §4).
	FS diskfault.FS

	mu      sync.Mutex
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
	scans   int64
	scanned int64
}

// New creates a Manager over dir, creating it if needed.
func New(dir string, ingest Ingest, clk clock.Clock, scanInterval time.Duration) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("landing: mkdir: %w", err)
	}
	return &Manager{
		dir:          dir,
		ingest:       ingest,
		clk:          clk,
		scanInterval: scanInterval,
		FS:           diskfault.OS(),
		stopCh:       make(chan struct{}),
	}, nil
}

// Dir returns the landing directory path.
func (m *Manager) Dir() string { return m.dir }

// Deposit streams an uploaded file from r into the landing directory
// and ingests it (remote sources without a shared filesystem). The
// content must have IEEE CRC32 crc, else the deposit fails with
// diskfault.ErrChecksum and nothing lands.
func (m *Manager) Deposit(name string, r io.Reader, crc uint32) error {
	return m.deposit(name, r, crc, true)
}

// DepositUnchecked is Deposit for a depositor that carries no CRC (an
// HTTP POST, an in-process source).
func (m *Manager) DepositUnchecked(name string, r io.Reader) error {
	return m.deposit(name, r, 0, false)
}

// deposit writes with diskfault.Receive, so a scan never sees a
// half-written or corrupted deposit: only a complete (and, when
// checked, verified) file gets its final name, and a temp a failure
// leaves behind is swept at the next start-up. Deposits are not
// fsynced (see FS).
func (m *Manager) deposit(name string, r io.Reader, want uint32, check bool) error {
	err := diskfault.Receive(m.FS, m.dir, name, r, want, check)
	if errors.Is(err, diskfault.ErrChecksum) {
		return err
	}
	if err != nil {
		return fmt.Errorf("landing: deposit %s: %w", name, err)
	}
	return m.ingest(filepath.FromSlash(name))
}

// FileReady ingests a file a cooperating source already deposited
// (shared-filesystem sources using the notification protocol).
func (m *Manager) FileReady(relPath string) error {
	rel, err := diskfault.LocalName(relPath)
	if err != nil {
		return fmt.Errorf("landing: %w", err)
	}
	if _, err := m.FS.Stat(filepath.Join(m.dir, rel)); err != nil {
		return fmt.Errorf("landing: announced file missing: %w", err)
	}
	return m.ingest(rel)
}

// ScanOnce walks the landing directory and ingests every regular file
// found — the fallback for sources that never notify. Returns how many
// files were ingested. Ingest errors are collected but do not stop the
// scan.
func (m *Manager) ScanOnce() (int, error) {
	var ingested int
	var firstErr error
	err := walkDir(m.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// Entries can vanish mid-scan (another ingest moved them);
			// the error may arrive wrapped, so match by identity.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") {
			return nil // in-progress deposits by convention
		}
		rel, rerr := filepath.Rel(m.dir, path)
		if rerr != nil {
			return rerr
		}
		if ierr := m.ingest(rel); ierr != nil {
			if firstErr == nil {
				firstErr = ierr
			}
			return nil
		}
		ingested++
		return nil
	})
	m.mu.Lock()
	m.scans++
	m.scanned += int64(ingested)
	m.mu.Unlock()
	if err != nil {
		return ingested, fmt.Errorf("landing: scan: %w", err)
	}
	return ingested, firstErr
}

// Start launches the fallback scanner loop (no-op when the interval is
// zero).
func (m *Manager) Start() {
	if m.scanInterval <= 0 {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			t := m.clk.NewTimer(m.scanInterval)
			select {
			case <-m.stopCh:
				t.Stop()
				return
			case <-t.C():
			}
			m.ScanOnce()
		}
	}()
}

// Stop terminates the scanner loop.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stopCh)
	m.wg.Wait()
}

// ScanStats reports (scans performed, files ingested by scans).
func (m *Manager) ScanStats() (int64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scans, m.scanned
}
