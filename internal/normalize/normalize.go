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

// Process copies src to dst applying the compression mode, atomically
// (write to a temp file in dst's directory, then rename). It returns
// the staged size and checksum used for delivery verification.
func Process(src, dst string, mode config.Compression) (Result, error) {
	return ProcessFS(diskfault.OS(), src, dst, mode)
}

// ProcessFS is Process over an explicit filesystem seam, and it is the
// durable variant the server uses: the receipt DB will point at dst,
// so the temp file is fsynced before the rename and the parent
// directory is fsynced after it. Without both, a power cut after the
// arrival receipt commits can leave the receipt referencing a
// truncated or missing staged file.
func ProcessFS(fsys diskfault.FS, src, dst string, mode config.Compression) (Result, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return Result{}, fmt.Errorf("normalize: open source: %w", err)
	}
	defer in.Close()
	if err := fsys.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return Result{}, fmt.Errorf("normalize: mkdir: %w", err)
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(dst), ".bistro-tmp-*")
	if err != nil {
		return Result{}, fmt.Errorf("normalize: temp file: %w", err)
	}
	tmpName := tmp.Name()
	res, err := transform(in, tmp, mode)
	if err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return Result{}, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return Result{}, fmt.Errorf("normalize: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return Result{}, fmt.Errorf("normalize: close temp: %w", err)
	}
	if err := fsys.Rename(tmpName, dst); err != nil {
		fsys.Remove(tmpName)
		return Result{}, fmt.Errorf("normalize: rename: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(dst)); err != nil {
		return Result{}, fmt.Errorf("normalize: sync dir: %w", err)
	}
	return res, nil
}

// transform streams r to w under the compression mode, accumulating
// size and checksum of the bytes written.
func transform(r io.Reader, w io.Writer, mode config.Compression) (Result, error) {
	crc := crc32.NewIEEE()
	counted := &countWriter{w: io.MultiWriter(w, crc)}
	switch mode {
	case config.CompressNone:
		if _, err := diskfault.Copy(counted, r); err != nil {
			return Result{}, fmt.Errorf("normalize: copy: %w", err)
		}
	case config.CompressGzip:
		zw := gzip.NewWriter(counted)
		if _, err := diskfault.Copy(zw, r); err != nil {
			return Result{}, fmt.Errorf("normalize: gzip: %w", err)
		}
		if err := zw.Close(); err != nil {
			return Result{}, fmt.Errorf("normalize: gzip close: %w", err)
		}
	case config.CompressGunzip:
		zr, err := gzip.NewReader(r)
		if err != nil {
			return Result{}, fmt.Errorf("normalize: gunzip: %w", err)
		}
		if _, err := diskfault.Copy(counted, zr); err != nil {
			return Result{}, fmt.Errorf("normalize: gunzip copy: %w", err)
		}
		if err := zr.Close(); err != nil {
			return Result{}, fmt.Errorf("normalize: gunzip close: %w", err)
		}
	case config.CompressBunzip2:
		if _, err := diskfault.Copy(counted, bzip2.NewReader(r)); err != nil {
			return Result{}, fmt.Errorf("normalize: bunzip2: %w", err)
		}
	default:
		return Result{}, fmt.Errorf("normalize: unknown compression mode %v", mode)
	}
	return Result{Size: counted.n, Checksum: crc.Sum32()}, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
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
