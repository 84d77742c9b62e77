package receipts

import "slices"

// CompactExpired folds expired receipts out of the store so WAL +
// checkpoint size stays bounded under continuous expiry. The caller's
// eligibility callback decides which expired files may be dropped —
// typically: archived in the manifest AND delivered to every
// interested subscriber AND not referenced by an active replay
// session — using the provided delivered(sub) probe for the file under
// inspection. The callback runs under the store lock and MUST NOT call
// back into the store.
//
// Compaction writes no WAL record: it deletes in memory and
// checkpoints immediately, so a crash before the checkpoint simply
// replays the uncompacted WAL and a later pass folds the same receipts
// again. After compaction the manifest is the only record of the file;
// per-subscriber delivery history for it is gone, so an explicit
// replay over a compacted range re-streams those files (delivery to
// the same destination path is an idempotent overwrite).
func (s *Store) CompactExpired(eligible func(f FileMeta, delivered func(sub string) bool) bool) (int, error) {
	s.mu.Lock()
	var victims []uint64
	for id, f := range s.files {
		if !s.expired[id] || s.quarantined[id] {
			continue
		}
		// A group receipt covering this file must not be folded while
		// any member's cursor still lags the file's log position — the
		// lagging member's only claim to an eventual catch-up delivery
		// is that receipt. (RecordGroupForget releases the hold.)
		if !s.groupsClearLocked(id) {
			continue
		}
		probe := func(sub string) bool { return s.deliveredLocked(id, sub) }
		if eligible(*f, probe) {
			victims = append(victims, id)
		}
	}
	// Each touched feed's id list is filtered once, so folding k files
	// out of a feed of n costs O(n), not O(k·n).
	touched := make(map[string]bool)
	for _, id := range victims {
		for _, feed := range s.files[id].Feeds {
			touched[feed] = true
		}
		delete(s.files, id)
		delete(s.expired, id)
		for _, subs := range s.delivered {
			delete(subs, id)
		}
	}
	for feed := range touched {
		ids := slices.DeleteFunc(s.feedFiles[feed], func(id uint64) bool { return s.files[id] == nil })
		if len(ids) == 0 {
			delete(s.feedFiles, feed)
		} else {
			s.feedFiles[feed] = ids
		}
	}
	if len(victims) > 0 {
		s.trimGroupLogsLocked()
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return 0, nil
	}
	return len(victims), s.Checkpoint()
}

// groupsClearLocked reports whether every member of every group whose
// log contains id has a cursor past the file's position. Caller holds
// s.mu.
func (s *Store) groupsClearLocked(id uint64) bool {
	for _, g := range s.groups {
		p, ok := g.pos[id]
		if !ok {
			continue
		}
		for _, m := range g.members {
			if m.Cursor <= p {
				return false
			}
		}
	}
	return true
}

// trimGroupLogsLocked drops the prefix of each group log whose files
// have been folded out of the store, advancing the group's base so
// cursors (which are absolute positions) stay valid. Caller holds
// s.mu.
func (s *Store) trimGroupLogsLocked() {
	for _, g := range s.groups {
		for len(g.log) > 0 {
			if _, live := s.files[g.log[0]]; live {
				break
			}
			delete(g.pos, g.log[0])
			g.log = g.log[1:]
			g.base++
		}
	}
}
