// Package archive implements Bistro's retention window and archiver
// nodes (SIGMOD'11 §4.2). A Bistro server keeps only a bounded time
// window of staged feed history; expired files move to an archiver
// node (tertiary storage in the paper, a directory tree here) that
// serves long-term analysis subscribers and provides the last line of
// defence after catastrophic server storage loss — it also keeps
// backups of the receipt database.
package archive

import (
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
	"bistro/internal/receipts"
)

// Archiver moves expired staged files into long-term storage.
type Archiver struct {
	store       *receipts.Store
	clk         clock.Clock
	stagingRoot string
	archiveRoot string
	// Window is the staged retention period; files whose data time (or
	// arrival) is older move to the archive. Zero disables expiry.
	Window time.Duration
	// FS is the filesystem seam; defaults to the real filesystem.
	FS diskfault.FS
	// Metrics, when set, counts archiver work (bistro_archive_*).
	Metrics *Metrics
	// Alarm, when set, is raised for conditions an operator must see —
	// today: expired data being deleted because no archive root is
	// configured. Raised at most once per process.
	Alarm func(msg string)
	// OnArchived, when set, runs after a file has durably moved into the
	// archive tree and its manifest entries are appended — the clustering
	// layer ships the archived copy to the warm standby here. An error
	// aborts the expiry pass; the receipt is already expired and the
	// manifest append is idempotent, so the next pass retries the hook.
	OnArchived func(v receipts.FileMeta, archivedAt time.Time) error

	man       *Manifest
	alarmOnce sync.Once
}

// New creates an Archiver rooted at archiveRoot (created if missing).
func New(store *receipts.Store, clk clock.Clock, stagingRoot, archiveRoot string, window time.Duration) (*Archiver, error) {
	if archiveRoot != "" {
		if err := os.MkdirAll(archiveRoot, 0o755); err != nil {
			return nil, fmt.Errorf("archive: mkdir: %w", err)
		}
	}
	return &Archiver{
		store:       store,
		clk:         clk,
		stagingRoot: stagingRoot,
		archiveRoot: archiveRoot,
		Window:      window,
		FS:          diskfault.OS(),
	}, nil
}

// ExpireOnce expires everything older than the window, moving staged
// content into the archive tree (or deleting it when no archive root
// is configured). It returns the number of files expired.
func (a *Archiver) ExpireOnce() (int, error) {
	if a.Window <= 0 {
		return 0, nil
	}
	cutoff := a.clk.Now().Add(-a.Window)
	victims, err := a.store.ExpireBefore(cutoff)
	if err != nil {
		return 0, err
	}
	for _, v := range victims {
		if err := a.MoveExpired(v); err != nil {
			return len(victims), err
		}
	}
	return len(victims), nil
}

// EnableManifest opens (or initialises) the archive manifest under
// the archive root. Must be called after FS is set; a no-op when no
// archive root is configured.
func (a *Archiver) EnableManifest() error {
	if a.archiveRoot == "" {
		return nil
	}
	m, err := OpenManifest(a.FS, filepath.Join(a.archiveRoot, ManifestDir))
	if err != nil {
		return err
	}
	a.man = m
	return nil
}

// Manifest returns the archive manifest, nil when not enabled.
func (a *Archiver) Manifest() *Manifest { return a.man }

// MoveExpired moves one expired file's staged content into the archive
// tree (or deletes it when no archive root is configured). Startup
// reconciliation re-runs it for expired receipts whose staged file
// still lingers — an archive move interrupted by a crash; the manifest
// append below therefore also covers that recovery path.
func (a *Archiver) MoveExpired(v receipts.FileMeta) error {
	src := filepath.Join(a.stagingRoot, filepath.FromSlash(v.StagedPath))
	if a.archiveRoot == "" {
		a.FS.Remove(src)
		a.Metrics.deleted()
		a.alarmOnce.Do(func() {
			if a.Alarm != nil {
				a.Alarm("expired files are being DELETED: no archive root configured")
			}
		})
		return nil
	}
	dst := filepath.Join(a.archiveRoot, filepath.FromSlash(v.StagedPath))
	err := a.moveFile(src, dst)
	switch {
	case err == nil:
		a.Metrics.moved(v.Size)
	case os.IsNotExist(err):
		// Source already gone: tolerated (a previous run may have
		// completed the move before crashing). Index the file only if
		// the archived copy actually exists.
		if _, serr := a.FS.Stat(dst); serr != nil {
			return nil
		}
	default:
		a.Metrics.moveFailed()
		return fmt.Errorf("archive: move %s: %w", v.StagedPath, err)
	}
	if err := a.recordArchived(v); err != nil {
		return err
	}
	if a.OnArchived != nil {
		return a.OnArchived(v, a.clk.Now().UTC())
	}
	return nil
}

// recordArchived appends the file's manifest entries (idempotent: the
// manifest drops ids it already holds).
func (a *Archiver) recordArchived(v receipts.FileMeta) error {
	if a.man == nil {
		return nil
	}
	if a.man.Has(v.ID) {
		return nil
	}
	entries := EntriesFor(v, a.clk.Now().UTC())
	if err := a.man.Append(entries); err != nil {
		return fmt.Errorf("archive: manifest append %s: %w", v.StagedPath, err)
	}
	a.Metrics.manifestAppended(len(entries))
	return nil
}

// ReconcileManifest is the scan-once recovery path: it walks the
// archive tree and appends manifest entries for archived files the
// manifest does not know — a crash between an archive move and its
// manifest append leaves exactly this state. lookup resolves an
// archived file's staged-relative path to its receipt metadata (no
// receipt → skipped; the orphan sweep owns those). Returns the number
// of files repaired.
func (a *Archiver) ReconcileManifest(lookup func(stagedPath string) (receipts.FileMeta, bool)) (int, error) {
	if a.man == nil || a.archiveRoot == "" {
		return 0, nil
	}
	repaired := 0
	err := filepath.WalkDir(a.archiveRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != a.archiveRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "receipts-backup") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, rerr := filepath.Rel(a.archiveRoot, path)
		if rerr != nil {
			return rerr
		}
		staged := filepath.ToSlash(rel)
		meta, ok := lookup(staged)
		if !ok || a.man.Has(meta.ID) {
			return nil
		}
		if aerr := a.recordArchived(meta); aerr != nil {
			return aerr
		}
		repaired++
		return nil
	})
	if err != nil {
		return repaired, fmt.Errorf("archive: manifest reconcile: %w", err)
	}
	return repaired, nil
}

// moveFile renames when possible and falls back to copy+remove across
// filesystems. Either way the destination is made durable before the
// source disappears: after a rename the destination directory is
// fsynced; in the copy fallback the destination file and its directory
// are fsynced before os.Remove(src) — otherwise a crash in the gap
// loses the file on both sides.
func (a *Archiver) moveFile(src, dst string) error {
	if err := a.FS.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := a.FS.Rename(src, dst); err == nil {
		return a.FS.SyncDir(filepath.Dir(dst))
	} else if os.IsNotExist(err) {
		return err
	}
	in, err := a.FS.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := a.FS.Create(dst)
	if err != nil {
		return err
	}
	if _, err := diskfault.Copy(out, in); err != nil {
		out.Close()
		a.FS.Remove(dst)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		a.FS.Remove(dst)
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := a.FS.SyncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	return a.FS.Remove(src)
}

// Open serves a file from long-term storage (long-horizon analysis
// subscribers whose range exceeds the server window).
func (a *Archiver) Open(stagedPath string) (io.ReadCloser, error) {
	if a.archiveRoot == "" {
		return nil, fmt.Errorf("archive: no archive configured")
	}
	f, err := a.FS.Open(filepath.Join(a.archiveRoot, filepath.FromSlash(stagedPath)))
	if err != nil {
		return nil, fmt.Errorf("archive: open: %w", err)
	}
	return f, nil
}

// BackupReceipts snapshots the receipt database (checkpoint + WAL)
// into the archive tree, providing the redo source the paper describes
// for catastrophic server-storage failures.
func (a *Archiver) BackupReceipts(receiptsDir string) error {
	if a.archiveRoot == "" {
		return fmt.Errorf("archive: no archive configured")
	}
	// Checkpoint first so the snapshot is compact and the WAL tail is
	// empty at the moment of copy.
	if err := a.store.Checkpoint(); err != nil {
		return err
	}
	dstDir := filepath.Join(a.archiveRoot, "receipts-backup")
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("archive: backup mkdir: %w", err)
	}
	entries, err := os.ReadDir(receiptsDir)
	if err != nil {
		return fmt.Errorf("archive: read receipts dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := a.copyFile(filepath.Join(receiptsDir, e.Name()), filepath.Join(dstDir, e.Name())); err != nil {
			return fmt.Errorf("archive: backup %s: %w", e.Name(), err)
		}
	}
	return nil
}

// RestoreReceipts copies a backup back into place (the receipts dir
// must not hold an open store).
func (a *Archiver) RestoreReceipts(receiptsDir string) error {
	srcDir := filepath.Join(a.archiveRoot, "receipts-backup")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return fmt.Errorf("archive: no backup: %w", err)
	}
	if err := os.MkdirAll(receiptsDir, 0o755); err != nil {
		return fmt.Errorf("archive: restore mkdir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := a.copyFile(filepath.Join(srcDir, e.Name()), filepath.Join(receiptsDir, e.Name())); err != nil {
			return fmt.Errorf("archive: restore %s: %w", e.Name(), err)
		}
	}
	return nil
}

func (a *Archiver) copyFile(src, dst string) error {
	in, err := a.FS.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := a.FS.Create(dst)
	if err != nil {
		return err
	}
	if _, err := diskfault.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
