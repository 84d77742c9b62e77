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

// Output is a staged file being written durably: a diskfault.Writer in
// its destination's directory (or an ancestor of it), optionally
// gzip-compressed, with the size and CRC32 of the bytes that actually
// reach the file — receipts describe the bytes staged. Commit is the
// Writer's fsync-rename-dirsync sequence: the receipt DB will point at
// the destination.
type Output struct {
	diskfault.Writer // Name, Abort, Size and CRC as is
	zw               *gzip.Writer
}

// Create starts an Output in dir, creating the directory as needed.
// With gz set, written bytes are gzip-compressed on their way to the
// file.
func Create(fsys diskfault.FS, dir string, gz bool) (*Output, error) {
	w, err := diskfault.Create(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	o := &Output{Writer: w}
	if gz {
		o.zw = gzip.NewWriter(&o.Writer)
	}
	return o, nil
}

// Write appends b to the output, through the gzip writer if any.
func (o *Output) Write(b []byte) (int, error) {
	if o.zw != nil {
		return o.zw.Write(b)
	}
	return o.Writer.Write(b)
}

// CloseForRead finishes the content without making it durable or
// renaming it, for bytes that feed another stage instead of staging.
// Abort still removes the temp file.
func (o *Output) CloseForRead() error {
	var err error
	if o.zw != nil {
		err = o.zw.Close()
	}
	if cerr := o.Writer.CloseForRead(); err == nil {
		err = cerr
	}
	return err
}

// Commit makes the output durable at dst (see diskfault.Writer.Commit).
func (o *Output) Commit(dst string) (Result, error) {
	if o.zw != nil {
		if err := o.zw.Close(); err != nil {
			o.Abort()
			return Result{}, fmt.Errorf("normalize: gzip close: %w", err)
		}
	}
	if err := o.Writer.Commit(dst); err != nil {
		return Result{}, fmt.Errorf("normalize: %w", err)
	}
	return Result{Size: o.Size(), Checksum: o.CRC()}, nil
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
