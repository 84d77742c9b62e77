package server

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"bistro/internal/classifier"
	"bistro/internal/normalize"
	"bistro/internal/receipts"
)

// walkDir is filepath.WalkDir behind a seam so tests can inject walk
// errors (wrapped not-exist shapes in particular).
var walkDir = filepath.WalkDir

// ReconcileReport summarizes one startup reconciliation pass over the
// receipt database and the staging/archive trees.
type ReconcileReport struct {
	// Checked is how many arrival receipts were cross-checked.
	Checked int
	// Missing arrivals had no staged (or archived) file; quarantined in
	// the DB so they never enter a delivery queue.
	Missing int
	// Corrupt arrivals failed their recorded size or checksum; the file
	// moved to the quarantine directory and the receipt was quarantined.
	Corrupt int
	// ArchiveMoves re-ran interrupted staging→archive moves for expired
	// receipts whose staged file still lingered.
	ArchiveMoves int
	// Reingested orphan staged files had no receipt but still matched a
	// feed at their recorded path; a fresh arrival was recorded.
	Reingested int
	// Orphaned staged files had no receipt and no identity match; moved
	// under quarantine/orphans.
	Orphaned int
}

// Clean reports whether the pass found nothing to repair.
func (r *ReconcileReport) Clean() bool {
	return r.Missing == 0 && r.Corrupt == 0 && r.ArchiveMoves == 0 &&
		r.Reingested == 0 && r.Orphaned == 0
}

func (r *ReconcileReport) String() string {
	return fmt.Sprintf("checked=%d missing=%d corrupt=%d archive_moves=%d reingested=%d orphaned=%d",
		r.Checked, r.Missing, r.Corrupt, r.ArchiveMoves, r.Reingested, r.Orphaned)
}

// Reconcile cross-checks every arrival receipt against the staging and
// archive trees, and the staging tree against the receipts (§4.2: the
// receipt database is the source of truth for what the server owes its
// subscribers — but after a crash the payloads it points at may not
// have survived). Divergences are repaired or quarantined, never left
// to fail a transfer mid-stream:
//
//   - arrival with no staged file → receipt quarantined, alarm raised;
//   - arrival whose staged file fails its recorded size/checksum →
//     file moved under the quarantine directory, receipt quarantined,
//     alarm raised;
//   - expired receipt whose staged file lingers (archive move
//     interrupted) → the move is re-run;
//   - staged file with no receipt → re-ingested when it still maps to
//     the same staged path under current feed definitions, otherwise
//     moved under quarantine/orphans.
//
// Run it from Start before the delivery engine computes backfill
// queues, so quarantined ids are already excluded.
func (s *Server) Reconcile() (*ReconcileReport, error) {
	rep := &ReconcileReport{}
	known := make(map[string]bool)
	for _, meta := range s.store.AllFiles() {
		known[meta.StagedPath] = true
		if s.store.Quarantined(meta.ID) {
			continue
		}
		staged := filepath.Join(s.stage, filepath.FromSlash(meta.StagedPath))
		if s.store.IsExpired(meta.ID) {
			// Only divergence possible: the staged copy should be gone.
			if _, err := s.fs.Stat(staged); err == nil {
				if err := s.arch.MoveExpired(meta); err != nil {
					s.logger.Logf("reconcile", "archive move %s: %v", meta.StagedPath, err)
				} else {
					rep.ArchiveMoves++
				}
			}
			continue
		}
		rep.Checked++
		if _, err := s.fs.Stat(staged); err != nil {
			if err := s.quarantineReceipt(meta, "staged file missing"); err != nil {
				return rep, err
			}
			rep.Missing++
			continue
		}
		crc, n, err := normalize.ChecksumFileFS(s.fs, staged)
		if err != nil || n != meta.Size || crc != meta.Checksum {
			reason := fmt.Sprintf("staged file corrupt (size %d/%d, crc %08x/%08x)",
				n, meta.Size, crc, meta.Checksum)
			if err != nil {
				reason = fmt.Sprintf("staged file unreadable: %v", err)
			}
			if qerr := s.moveToQuarantine(staged, meta.StagedPath); qerr != nil {
				s.logger.Logf("reconcile", "quarantine move %s: %v", meta.StagedPath, qerr)
			}
			if err := s.quarantineReceipt(meta, reason); err != nil {
				return rep, err
			}
			rep.Corrupt++
		}
	}

	// Orphan sweep: staged files no receipt points at. A crash between
	// the staging rename and the arrival commit leaves exactly this.
	err := walkDir(s.stage, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			// Entries can vanish mid-walk; the error may arrive wrapped
			// (an fs layer annotating the path), so match by identity.
			if errors.Is(werr, fs.ErrNotExist) {
				return nil
			}
			return werr
		}
		if d.IsDir() {
			// _unmatched has its own reprocessing pass.
			if d.Name() == "_unmatched" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		rel, rerr := filepath.Rel(s.stage, path)
		if rerr != nil {
			return rerr
		}
		name := filepath.ToSlash(rel)
		if known[name] {
			return nil
		}
		if s.reingestOrphan(name, path) {
			rep.Reingested++
			return nil
		}
		if err := s.moveToQuarantine(path, filepath.Join("orphans", rel)); err != nil {
			s.logger.Logf("reconcile", "orphan quarantine %s: %v", name, err)
			return nil
		}
		s.logger.Logf("reconcile", "orphan staged file %s moved to quarantine", name)
		rep.Orphaned++
		return nil
	})
	return rep, err
}

// quarantineReceipt durably excludes an arrival from delivery and
// raises a per-feed alarm.
func (s *Server) quarantineReceipt(meta receipts.FileMeta, reason string) error {
	if err := s.store.RecordQuarantine(meta.ID); err != nil {
		return fmt.Errorf("server: quarantine %s: %w", meta.StagedPath, err)
	}
	for _, feed := range meta.Feeds {
		s.logger.Raise(feed, fmt.Sprintf("reconcile quarantined %s: %s", meta.StagedPath, reason))
	}
	return nil
}

// moveToQuarantine relocates a diverged file under the quarantine
// directory, preserving its staging-relative path, durably.
func (s *Server) moveToQuarantine(src, rel string) error {
	dst := filepath.Join(s.quar, filepath.FromSlash(rel))
	if err := s.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := s.fs.Rename(src, dst); err != nil {
		return err
	}
	return s.fs.SyncDir(filepath.Dir(dst))
}

// reingestOrphan records a fresh arrival for a staged file that has no
// receipt, provided current feed definitions still map it to the same
// staged path (identity check — otherwise we cannot know what the file
// is and it goes to quarantine). The delivery engine is not running
// yet; engine.Start's backfill picks the new receipt up.
func (s *Server) reingestOrphan(name, path string) bool {
	// Staged paths carry the feed-path prefix the classifier patterns
	// never see, so try the name both whole and with each feed's prefix
	// stripped.
	candidates := []string{name}
	for _, f := range s.cfg.Feeds {
		if suffix, ok := strings.CutPrefix(name, f.Path+"/"); ok {
			candidates = append(candidates, suffix)
		}
	}
	for _, cand := range candidates {
		matches := s.class.Classify(cand)
		if len(matches) == 0 {
			continue
		}
		primary := matches[0]
		stagedName, err := normalize.StagedName(primary.Feed, cand, primary.Fields)
		if err != nil || filepath.ToSlash(stagedName) != name {
			continue
		}
		return s.recordOrphanArrival(cand, name, path, matches)
	}
	return false
}

// recordOrphanArrival writes the fresh receipt for a re-ingested
// orphan.
func (s *Server) recordOrphanArrival(name, stagedPath, path string, matches []classifier.Match) bool {
	crc, size, err := normalize.ChecksumFileFS(s.fs, path)
	if err != nil {
		return false
	}
	feeds, dataTime := classified(matches)
	meta := receipts.FileMeta{
		Name:       name,
		StagedPath: stagedPath,
		Feeds:      feeds,
		Size:       size,
		Checksum:   crc,
		Arrived:    s.clk.Now(),
		DataTime:   dataTime,
	}
	if _, err := s.store.RecordArrival(meta); err != nil {
		s.logger.Logf("reconcile", "reingest %s: %v", stagedPath, err)
		return false
	}
	s.logger.Logf("reconcile", "orphan staged file %s re-ingested", stagedPath)
	return true
}

// cleanStaleTmp removes `.bistro-tmp-*` droppings left by a crash
// mid-upload (landing), mid-normalize (staging) or mid-plan (staging
// and the quarantine tree, where plan reject sinks write). They are by
// construction not yet referenced by any receipt. Other dot-files in
// landing are sources' own in-progress deposits and stay.
func (s *Server) cleanStaleTmp() int {
	var removed int
	for _, root := range []string{s.land.Dir(), s.stage, s.quar} {
		walkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if d.IsDir() {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".bistro-tmp-") {
				if s.fs.Remove(path) == nil {
					removed++
				}
			}
			return nil
		})
	}
	return removed
}
