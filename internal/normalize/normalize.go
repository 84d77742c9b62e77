// Package normalize implements Bistro's file normalizer (SIGMOD'11
// §3.1): it rewrites incoming filenames into the organizational layout
// a feed requests (e.g. daily directories derived from the timestamp
// fields embedded in the name) and applies content normalization
// (gzip compression or decompression) while moving files from landing
// to staging directories.
package normalize

import (
	"compress/bzip2"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"

	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/pattern"
)

// StagedName computes the staging-relative path for a matched file.
// Feeds with a normalization template render it from the extracted
// fields; other feeds keep the original name. The feed's path prefixes
// the result so staging mirrors the feed hierarchy.
func StagedName(feed *config.Feed, name string, fields *pattern.Fields) (string, error) {
	out := name
	if feed.Normalize != nil {
		rendered, err := feed.Normalize.Render(fields)
		if err != nil {
			return "", fmt.Errorf("normalize: feed %s: %w", feed.Path, err)
		}
		out = rendered
	}
	out = adjustExtension(out, feed.Compress)
	return filepath.Join(filepath.FromSlash(feed.Path), filepath.FromSlash(out)), nil
}

// adjustExtension keeps the staged filename truthful about its
// encoding: gzip adds ".gz" when absent, gunzip strips a trailing
// ".gz"/".gzip".
func adjustExtension(name string, c config.Compression) string {
	switch c {
	case config.CompressGzip:
		if !strings.HasSuffix(name, ".gz") && !strings.HasSuffix(name, ".gzip") {
			return name + ".gz"
		}
	case config.CompressGunzip:
		if strings.HasSuffix(name, ".gz") {
			return strings.TrimSuffix(name, ".gz")
		}
		if strings.HasSuffix(name, ".gzip") {
			return strings.TrimSuffix(name, ".gzip")
		}
	case config.CompressBunzip2:
		if strings.HasSuffix(name, ".bz2") {
			return strings.TrimSuffix(name, ".bz2")
		}
		if strings.HasSuffix(name, ".bzip2") {
			return strings.TrimSuffix(name, ".bzip2")
		}
	}
	return name
}

// Result describes a normalized file.
type Result struct {
	// Size is the byte count written to the staged file.
	Size int64
	// Checksum is the CRC32 (IEEE) of the staged content.
	Checksum uint32
}

// ProcessFS copies src to dst applying the compression mode, durably
// and atomically: the source streams, decompressed when the mode asks,
// into an Output committed at dst. It returns the staged size and
// checksum used for delivery verification. It is the trivial ingestion
// plan: one input, one output, no operators.
func ProcessFS(fsys diskfault.FS, src, dst string, mode config.Compression) (Result, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return Result{}, fmt.Errorf("normalize: open source: %w", err)
	}
	defer in.Close()
	var r io.Reader = in
	switch mode {
	case config.CompressNone, config.CompressGzip:
	case config.CompressGunzip:
		zr, err := gzip.NewReader(in)
		if err != nil {
			return Result{}, fmt.Errorf("normalize: gunzip: %w", err)
		}
		r = zr
	case config.CompressBunzip2:
		r = bzip2.NewReader(in)
	default:
		return Result{}, fmt.Errorf("normalize: unknown compression mode %v", mode)
	}
	out, err := Create(fsys, filepath.Dir(dst), mode == config.CompressGzip)
	if err != nil {
		return Result{}, err
	}
	if _, err := diskfault.Copy(out, r); err != nil {
		out.Abort()
		return Result{}, fmt.Errorf("normalize: copy: %w", err)
	}
	return out.Commit(dst)
}

// Output is a staged file being written durably: a temp file in its
// destination's directory (or an ancestor of it), optionally
// gzip-compressed, with the size and CRC32 of the bytes that actually
// reach the file. Commit is the one fsync-rename-dirsync sequence on
// the ingest path: the receipt DB will point at the destination, so the
// temp file is fsynced before the rename and the directory after it.
// Without both, a power cut after the arrival receipt commits can leave
// the receipt referencing a truncated or missing staged file.
type Output struct {
	fsys   diskfault.FS
	dir    string
	tmp    diskfault.File
	zw     *gzip.Writer
	size   int64
	crc    uint32
	closed bool
}

// Create starts an Output in dir, creating the directory as needed.
// With gz set, written bytes are gzip-compressed on their way to the
// file.
func Create(fsys diskfault.FS, dir string, gz bool) (*Output, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("normalize: mkdir: %w", err)
	}
	tmp, err := fsys.CreateTemp(dir, ".bistro-tmp-*")
	if err != nil {
		return nil, fmt.Errorf("normalize: temp file: %w", err)
	}
	o := &Output{fsys: fsys, dir: dir, tmp: tmp}
	if gz {
		o.zw = gzip.NewWriter((*fileWriter)(o))
	}
	return o, nil
}

// Write appends b to the output, through the gzip writer if any.
func (o *Output) Write(b []byte) (int, error) {
	if o.zw != nil {
		return o.zw.Write(b)
	}
	return (*fileWriter)(o).Write(b)
}

// fileWriter is the accounting layer under the optional gzip writer:
// receipts describe the bytes actually staged.
type fileWriter Output

func (w *fileWriter) Write(b []byte) (int, error) {
	n, err := w.tmp.Write(b)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b[:n])
	w.size += int64(n)
	return n, err
}

// Name is the temp file's path, readable after CloseForRead.
func (o *Output) Name() string { return o.tmp.Name() }

// CloseForRead finishes the content without making it durable or
// renaming it, for bytes that feed another stage instead of staging.
// Abort still removes the temp file.
func (o *Output) CloseForRead() error {
	if o.closed {
		return nil
	}
	o.closed = true
	var err error
	if o.zw != nil {
		err = o.zw.Close()
	}
	if cerr := o.tmp.Close(); err == nil {
		err = cerr
	}
	return err
}

// Commit makes the output durable at dst: flush, fsync, close, rename,
// directory fsync. dst's directory is created only when it is not the
// one the temp file was made in.
func (o *Output) Commit(dst string) (Result, error) {
	if o.zw != nil {
		if err := o.zw.Close(); err != nil {
			o.Abort()
			return Result{}, fmt.Errorf("normalize: gzip close: %w", err)
		}
	}
	if err := o.tmp.Sync(); err != nil {
		o.Abort()
		return Result{}, fmt.Errorf("normalize: sync temp: %w", err)
	}
	o.closed = true
	if err := o.tmp.Close(); err != nil {
		o.Abort()
		return Result{}, fmt.Errorf("normalize: close temp: %w", err)
	}
	dir := filepath.Dir(dst)
	if dir != o.dir {
		if err := o.fsys.MkdirAll(dir, 0o755); err != nil {
			o.Abort()
			return Result{}, fmt.Errorf("normalize: mkdir: %w", err)
		}
	}
	if err := o.fsys.Rename(o.tmp.Name(), dst); err != nil {
		o.Abort()
		return Result{}, fmt.Errorf("normalize: rename: %w", err)
	}
	if err := o.fsys.SyncDir(dir); err != nil {
		return Result{}, fmt.Errorf("normalize: sync dir: %w", err)
	}
	return Result{Size: o.size, Checksum: o.crc}, nil
}

// Abort discards the output. It is idempotent and safe after Commit,
// which leaves nothing at the temp path.
func (o *Output) Abort() {
	if !o.closed {
		o.closed = true
		o.tmp.Close()
	}
	o.fsys.Remove(o.tmp.Name())
}

// ChecksumFile computes the CRC32 of a file's content, used by
// subscribers to verify received files.
func ChecksumFile(path string) (uint32, int64, error) {
	return ChecksumFileFS(diskfault.OS(), path)
}

// ChecksumFileFS is ChecksumFile over an explicit filesystem seam.
func ChecksumFileFS(fsys diskfault.FS, path string) (uint32, int64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("normalize: open: %w", err)
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	n, err := diskfault.Copy(crc, f)
	if err != nil {
		return 0, 0, fmt.Errorf("normalize: checksum: %w", err)
	}
	return crc.Sum32(), n, nil
}
