package diskfault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// TmpPrefix marks a file Receive or a Writer is still writing; scans
// skip it as a dot-file, and start-up sweeps stale ones (RemoveTemps).
const TmpPrefix = ".bistro-tmp-"

// ErrChecksum refuses received content that fails its CRC.
var ErrChecksum = errors.New("checksum mismatch")

// LocalName turns a slash-separated name a peer sent into a path
// relative to a root, refusing every name that would not resolve
// strictly under that root: empty, absolute, climbing out with "..",
// or naming the root itself ("." or "a/.."). A name that merely holds
// dots ("poll..txt", "..hidden") is accepted.
func LocalName(name string) (string, error) {
	rel := filepath.FromSlash(name)
	if !filepath.IsLocal(rel) || filepath.Clean(rel) == "." {
		return "", fmt.Errorf("invalid path %q", name)
	}
	return rel, nil
}

// Receive is the one writer for bytes a peer sends (landing deposits,
// pushed and local-directory deliveries): it writes r under root/name,
// a name LocalName accepts, through a temp file beside it with the
// IEEE CRC32 computed on the way, and renames only a complete file
// (whose CRC is want, when check is set) into place. A read error or a
// mismatch (ErrChecksum) removes the temp. Nothing is fsynced.
func Receive(fsys FS, root, name string, r io.Reader, want uint32, check bool) error {
	rel, err := LocalName(name)
	if err != nil {
		return err
	}
	dst := filepath.Join(root, rel)
	f, err := createTemp(fsys, dst)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	_, crc, err := CopyCRC(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && check && crc != want {
		err = ErrChecksum
	}
	if err == nil {
		if err = fsys.Rename(f.Name(), dst); err == nil {
			return nil
		}
	}
	// A temp this fails to remove keeps its TmpPrefix name.
	_ = fsys.Remove(f.Name())
	return err
}

// createTemp opens dst's temp file: TmpPrefix and dst's base name, in
// dst's directory, created only when the directory turns out to be
// missing. Two writes of one name overlapping fall back to a random
// temp name, so neither writes into the other's file.
func createTemp(fsys FS, dst string) (File, error) {
	dir, base := filepath.Split(dst)
	tmp := dir + TmpPrefix + base
	const flag = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	f, err := fsys.OpenFile(tmp, flag, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err = fsys.OpenFile(tmp, flag, 0o644)
	}
	if errors.Is(err, fs.ErrExist) {
		f, err = fsys.CreateTemp(dir, TmpPrefix+base+".*")
	}
	return f, err
}
