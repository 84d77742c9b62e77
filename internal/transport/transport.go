// Package transport abstracts how delivered bytes, notifications, and
// remote trigger invocations reach a subscriber. The delivery engine
// schedules *what* to send and records receipts; a Transport carries it.
//
// Three implementations exist in this repository: LocalDir (write into
// a destination directory on the server host), netsim.Transport
// (simulated bandwidth/latency/failures for experiments), and the TCP
// transport in the server package (protocol-based push to subscriber
// daemons).
package transport

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"bistro/internal/diskfault"
)

// File is the payload of one delivery or notification.
type File struct {
	// FileID is the server receipt id.
	FileID uint64
	// Feed is the leaf feed path.
	Feed string
	// Name is the destination-relative path.
	Name string
	// Data is the staged content, inlined for small files; nil for
	// notifications and for large files delivered by streaming.
	Data []byte
	// Stored opens the stored content when Data is nil (large-file
	// delivery): the delivery engine's opener bound to this file, so a
	// streamed read comes from staging or the archive and counts as a
	// staged read.
	Stored func() (io.ReadCloser, error)
	// CRC is the IEEE CRC32 of the content.
	CRC uint32
	// Size is the staged size in bytes.
	Size int64
}

// Open returns a reader over the file content regardless of carriage
// mode (inline data or stored file).
func (f File) Open() (io.ReadCloser, error) {
	if f.Data != nil {
		return io.NopCloser(bytes.NewReader(f.Data)), nil
	}
	if f.Stored == nil {
		return nil, fmt.Errorf("transport: file %s has neither data nor a stored copy", f.Name)
	}
	return f.Stored()
}

// Transport moves files, notifications, and trigger invocations to
// subscribers. Implementations must be safe for concurrent use.
type Transport interface {
	// Deliver pushes file content to the subscriber.
	Deliver(sub string, f File) error
	// Notify announces availability to a hybrid push-pull subscriber.
	Notify(sub string, f File) error
	// Trigger runs a registered command on the subscriber host.
	Trigger(sub string, command string, paths []string) error
	// Ping probes subscriber liveness (offline-retry checks).
	Ping(sub string) error
}

// LocalDir delivers files into per-subscriber destination directories
// on the local filesystem — the arrangement for subscribers colocated
// with the Bistro server, and the workhorse of tests and examples.
type LocalDir struct {
	mu   sync.RWMutex
	dest map[string]string
	// notified collects Notify calls for assertions and for local
	// hybrid subscribers that poll it.
	notified map[string][]File
}

// NewLocalDir creates a LocalDir transport.
func NewLocalDir() *LocalDir {
	return &LocalDir{
		dest:     make(map[string]string),
		notified: make(map[string][]File),
	}
}

// Register maps a subscriber name to its destination directory.
func (l *LocalDir) Register(sub, dir string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dest[sub] = dir
}

func (l *LocalDir) dirOf(sub string) (string, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d, ok := l.dest[sub]
	if !ok {
		return "", fmt.Errorf("transport: unknown subscriber %q", sub)
	}
	return d, nil
}

// Deliver writes the file under the subscriber's destination directory
// with diskfault.Receive, streaming the stored copy of large
// files: a name that would resolve outside the directory is refused,
// and the file appears only once complete and checksum-verified.
func (l *LocalDir) Deliver(sub string, f File) error {
	dir, err := l.dirOf(sub)
	if err != nil {
		return err
	}
	src, err := f.Open()
	if err != nil {
		return err
	}
	defer src.Close()
	if err := diskfault.Receive(diskfault.OS(), dir, f.Name, src, f.CRC, true); err != nil {
		return fmt.Errorf("transport: deliver %s: %w", f.Name, err)
	}
	return nil
}

// Notify records the notification; local hybrid subscribers read the
// staged file directly at their convenience.
func (l *LocalDir) Notify(sub string, f File) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.dest[sub]; !ok {
		return fmt.Errorf("transport: unknown subscriber %q", sub)
	}
	f.Data = nil
	l.notified[sub] = append(l.notified[sub], f)
	return nil
}

// Notifications drains the recorded notifications for a subscriber.
func (l *LocalDir) Notifications(sub string) []File {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.notified[sub]
	l.notified[sub] = nil
	return out
}

// Trigger for a local subscriber is executed by the trigger engine's
// ExecInvoker; the transport only validates the target.
func (l *LocalDir) Trigger(sub string, command string, paths []string) error {
	_, err := l.dirOf(sub)
	return err
}

// Ping succeeds for any registered subscriber.
func (l *LocalDir) Ping(sub string) error {
	_, err := l.dirOf(sub)
	return err
}
