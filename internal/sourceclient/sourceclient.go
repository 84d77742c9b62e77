// Package sourceclient is the lightweight client library feed
// producers embed to talk to a Bistro server (SIGMOD'11 §4.1): deposit
// or announce files and mark end-of-batch punctuation. The paper
// stresses that this client is deliberately minimal so incorporating
// it into existing source software is a small change.
package sourceclient

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/protocol"
)

// walkDir is filepath.WalkDir behind a seam so tests can inject walk
// errors (wrapped not-exist shapes in particular).
var walkDir = filepath.WalkDir

// Client is a connection from a data source to a Bistro server. A call
// that fails with anything but the server's refusal may have left the
// connection mid-frame, so the client closes it and the next call dials
// the same address again: a server restart or a file cut short
// mid-upload costs the calls in flight, not the client.
type Client struct {
	conn    *protocol.Conn // nil = dial before the next call
	addr    string
	name    string
	timeout time.Duration
}

// Dial connects and identifies the source.
func Dial(addr, name string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, name: name, timeout: timeout}
	if _, err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect returns the client's connection, dialing it and sending
// Hello first when the last call dropped it.
func (c *Client) connect() (*protocol.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	conn, err := protocol.Dial(c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.Call(protocol.Hello{Role: "source", Name: c.name}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("sourceclient: hello: %w", err)
	}
	c.conn = conn
	return conn, nil
}

// settle passes on a call's error, first dropping the connection after
// any error but a refusal (a *protocol.RemoteError: the server
// answered, the stream is in frame sync).
func (c *Client) settle(err error) error {
	if err != nil && !protocol.Refused(err) {
		c.conn.Close()
		c.conn = nil
	}
	return err
}

// call sends a request and awaits the Ack.
func (c *Client) call(msg any) error {
	conn, err := c.connect()
	if err != nil {
		return err
	}
	return c.settle(conn.Call(msg))
}

// DialRetry dials with an exponential-backoff retry schedule: sources
// started before (or surviving a restart of) the Bistro server keep
// trying instead of failing the producer's startup. pol.MaxRetries
// bounds the attempts (default 5 when unset); a nil clk uses the wall
// clock. Permanent errors abort immediately.
func DialRetry(addr, name string, timeout time.Duration, pol backoff.Policy, clk clock.Clock) (*Client, error) {
	if clk == nil {
		clk = clock.NewReal()
	}
	pol = pol.WithDefaults()
	retries := pol.MaxRetries
	if retries <= 0 {
		retries = 5
	}
	bo := backoff.New(pol, backoff.Seed(name+"@"+addr))
	var lastErr error
	for attempt := 1; ; attempt++ {
		c, err := Dial(addr, name, timeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if attempt >= retries || backoff.Classify(err) == backoff.ClassPermanent {
			break
		}
		clk.Sleep(bo.Next())
	}
	return nil, fmt.Errorf("sourceclient: dial %s gave up after %d attempts: %w", addr, retries, lastErr)
}

// Upload ships file content to the server's landing zone (sources
// without a shared filesystem).
func (c *Client) Upload(name string, data []byte) error {
	conn, err := c.connect()
	if err != nil {
		return err
	}
	err = conn.SendUpload(protocol.Upload{Name: name, Data: data, CRC: crc32.ChecksumIEEE(data)})
	if err == nil {
		err = conn.RecvAck()
	}
	return c.settle(err)
}

// UploadFile streams the file at path to the server's landing zone
// under name: one pass reads its size and CRC, a second sends it, so a
// file of any length costs a copy buffer, not its size in memory.
func (c *Client) UploadFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size, crc, err := diskfault.CopyCRC(io.Discard, f)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	conn, err := c.connect()
	if err != nil {
		return err
	}
	if err := conn.SendFrom(protocol.Upload{Name: name, CRC: crc}, f, size); err != nil {
		return c.settle(err)
	}
	return c.settle(conn.RecvAck())
}

// FileReady announces a file the source already deposited into the
// landing directory via a shared filesystem.
func (c *Client) FileReady(relPath string) error {
	return c.call(protocol.FileReady{Path: relPath})
}

// EndOfBatch marks source punctuation for a feed ("" = all feeds this
// source contributes to), enabling per-batch subscriber triggers
// without count/timeout guessing.
func (c *Client) EndOfBatch(feed string) error {
	return c.call(protocol.EndOfBatch{Feed: feed})
}

// Close terminates the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// WatchOptions configure WatchDir.
type WatchOptions struct {
	// Interval is the poll cadence. Default 2s.
	Interval time.Duration
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Stop terminates the watch when closed.
	Stop <-chan struct{}
	// OnUpload is called after each attempted upload (may be nil).
	OnUpload func(name string, err error)
	// Remove deletes local files after successful upload.
	Remove bool
	// Backoff stretches the poll interval after a scan with upload
	// failures (zero value = defaults), so a down server is not
	// hammered at the poll cadence. A clean scan resets the stretch.
	Backoff backoff.Policy
}

// WatchDir polls dir and uploads every new regular file to the server
// — the agent mode for sources that cannot embed the client library
// and have no shared filesystem with the Bistro server. Files are
// considered new when their (size, modtime) pair has not been uploaded
// before; dotfiles are skipped as in-progress deposits. Returns when
// Stop closes.
func (c *Client) WatchDir(dir string, opts WatchOptions) error {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	type stamp struct {
		size int64
		mod  time.Time
	}
	seen := make(map[string]stamp)
	bo := backoff.New(opts.Backoff.WithDefaults(), backoff.Seed(c.name+":"+dir))
	scan := func() (failed bool, _ error) {
		err := walkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				// Vanished mid-scan; the error may arrive wrapped.
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if d.IsDir() || strings.HasPrefix(d.Name(), ".") {
				return nil
			}
			info, ierr := d.Info()
			if ierr != nil {
				return nil // vanished mid-scan
			}
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				return rerr
			}
			key := filepath.ToSlash(rel)
			st := stamp{size: info.Size(), mod: info.ModTime()}
			if prev, ok := seen[key]; ok && prev == st {
				return nil
			}
			uerr := c.UploadFile(key, path)
			var unreadable *fs.PathError
			if errors.As(uerr, &unreadable) {
				return nil // vanished mid-scan, or not readable
			}
			if uerr == nil {
				seen[key] = st
				if opts.Remove {
					os.Remove(path)
					delete(seen, key)
				}
			} else {
				failed = true
			}
			if opts.OnUpload != nil {
				opts.OnUpload(key, uerr)
			}
			return nil
		})
		return failed, err
	}
	for {
		failed, err := scan()
		if err != nil {
			return fmt.Errorf("sourceclient: watch scan: %w", err)
		}
		wait := opts.Interval
		if failed {
			if d := bo.Next(); d > wait {
				wait = d
			}
		} else {
			bo.Reset()
		}
		t := opts.Clock.NewTimer(wait)
		select {
		case <-opts.Stop:
			t.Stop()
			return nil
		case <-t.C():
		}
	}
}
