package receipts

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"

	"bistro/internal/diskfault"
)

// ShipHooks are the replication callbacks a clustered server installs
// with ArmShipper. Both run synchronously inside the durability path:
// Batch inside the WAL flush (after the local fsync, before any waiter
// is released), Checkpoint inside Checkpoint (after the local snapshot
// is durable). A Batch error fails every commit in the flush window —
// an arrival is never acknowledged unless the standby holds it too.
type ShipHooks struct {
	// Batch ships one group-commit batch of framed WAL payloads. It
	// must not keep them: their buffers are reused once it returns.
	Batch func(payloads [][]byte) error
	// Checkpoint ships a full gob snapshot (the standby installs it and
	// resets its shipped WAL, mirroring the owner's compaction).
	Checkpoint func(state []byte) error
}

// ArmShipper installs replication hooks under an exclusive commit lock
// and calls sendSnapshot with the store's full encoded state inside
// the same exclusive section. No commit can interleave between the
// snapshot and the first shipped batch, so snapshot + batches is
// always a complete history on the standby.
//
// The hooks are installed even when sendSnapshot fails: an owner whose
// bootstrap could not reach its standby must fail commits (the hooks
// report the stream down), never silently run unreplicated. Re-arming
// (standby reconnect) re-sends a fresh snapshot; the standby installs
// it idempotently.
func (s *Store) ArmShipper(hooks ShipHooks, sendSnapshot func(state []byte) error) error {
	s.commitLock.Lock()
	defer s.commitLock.Unlock()
	s.mu.Lock()
	s.ship = hooks
	state, err := s.encodeStateLocked()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("receipts: arm shipper: %w", err)
	}
	if sendSnapshot != nil {
		if err := sendSnapshot(state); err != nil {
			return err
		}
	}
	return nil
}

// ShipperArmed reports whether replication hooks are installed.
func (s *Store) ShipperArmed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ship.Batch != nil
}

// CheckPayload validates that a shipped WAL payload decodes as a
// well-formed transaction. The standby runs it on every RepBatch
// payload before appending, so a corrupt frame is nacked and alarmed
// instead of poisoning the shipped log.
func CheckPayload(payload []byte) error {
	_, err := decodeOps(payload)
	return err
}

// CheckSnapshot validates that a shipped checkpoint decodes.
func CheckSnapshot(state []byte) error {
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("receipts: snapshot decode: %w", err)
	}
	return nil
}

// WriteCheckpoint installs a shipped checkpoint snapshot in dir the
// way the owner's Checkpoint installs its own, so a standby crash never
// leaves a torn snapshot.
func WriteCheckpoint(fsys diskfault.FS, dir string, state []byte) error {
	if err := CheckSnapshot(state); err != nil {
		return err
	}
	return installCheckpoint(fsys, dir, state)
}

// installCheckpoint makes state the durable checkpoint in dir with one
// Write through a diskfault.Writer.
func installCheckpoint(fsys diskfault.FS, dir string, state []byte) error {
	w, err := diskfault.Create(fsys, dir)
	if err != nil {
		return fmt.Errorf("receipts: checkpoint: %w", err)
	}
	if _, err := w.Write(state); err != nil {
		w.Abort()
		return fmt.Errorf("receipts: checkpoint write: %w", err)
	}
	if err := w.Commit(filepath.Join(dir, checkpointName)); err != nil {
		return fmt.Errorf("receipts: checkpoint: %w", err)
	}
	return nil
}

// WALWriter is the standby's append end of a shipped receipt WAL: it
// writes the frames an owner ships without maintaining the in-memory
// index (promotion opens the directory as a full Store, replaying
// everything). Not safe for concurrent use; the replication stream is
// strictly sequential.
type WALWriter struct {
	fsys diskfault.FS
	dir  string
	w    *wal
}

// OpenWALWriter opens (creating if necessary) the shipped WAL under
// dir, truncating any torn tail so appends start from a clean frame
// boundary.
func OpenWALWriter(fsys diskfault.FS, dir string) (*WALWriter, error) {
	if fsys == nil {
		fsys = diskfault.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("receipts: wal writer mkdir: %w", err)
	}
	w, err := openWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	// Position past the intact prefix (and truncate a torn tail).
	if err := w.replay(func([]byte) error { return nil }); err != nil {
		w.close()
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		w.close()
		return nil, fmt.Errorf("receipts: wal writer dir sync: %w", err)
	}
	return &WALWriter{fsys: fsys, dir: dir, w: w}, nil
}

// AppendBatch appends every payload and makes the batch durable under
// one fsync — the shipped mirror of the owner's group-commit flush.
func (ww *WALWriter) AppendBatch(payloads [][]byte) error {
	for _, p := range payloads {
		if err := ww.w.append(p); err != nil {
			return err
		}
	}
	return ww.w.sync()
}

// Reset truncates the shipped WAL (after a snapshot install).
func (ww *WALWriter) Reset() error { return ww.w.reset() }

// Size returns the shipped WAL's current length.
func (ww *WALWriter) Size() int64 { return ww.w.size }

// Close closes the underlying file.
func (ww *WALWriter) Close() error { return ww.w.close() }

// EncodeState returns the store's full gob snapshot — what ArmShipper
// hands its sendSnapshot callback. Exposed for out-of-band bootstraps
// and tests.
func (s *Store) EncodeState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeStateLocked()
}

// encodeStateLocked gob-encodes the full in-memory state. Caller holds
// s.mu.
func (s *Store) encodeStateLocked() ([]byte, error) {
	st := checkpointState{
		NextID:      s.nextID,
		Files:       s.files,
		FeedFiles:   s.feedFiles,
		Delivered:   s.delivered,
		Expired:     s.expired,
		Quarantined: s.quarantined,
	}
	if len(s.groups) > 0 {
		st.Groups = make(map[string]*groupCheckpoint, len(s.groups))
		for name, g := range s.groups {
			gc := &groupCheckpoint{
				Base:    g.base,
				Log:     g.log,
				Members: make(map[string]GroupMember, len(g.members)),
			}
			for sub, m := range g.members {
				gc.Members[sub] = *m
			}
			st.Groups[name] = gc
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
