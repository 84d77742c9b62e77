package server

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"bistro/internal/diskfault"
	"bistro/internal/protocol"
)

// recordingFS logs the ingest-visible operations under landing/ and
// staging/: every namespace call, and Write/Sync/Close on files it
// created. Read handles pass through unrecorded. Staging's random temp
// names are reduced to their pattern (landing's are deterministic), consecutive writes to one file collapse
// into one "Write…" entry, and a run of writes to several files is
// sorted (a plan flushes its buffered outputs in no fixed order), so
// the log is deterministic.
type recordingFS struct {
	diskfault.FS
	root string

	mu  sync.Mutex
	ops []string
}

func (r *recordingFS) record(op, path string) {
	rel, err := filepath.Rel(r.root, path)
	if err != nil || !(strings.HasPrefix(rel, "landing") || strings.HasPrefix(rel, "staging")) {
		return
	}
	rel = filepath.ToSlash(rel)
	if i := strings.Index(rel, ".bistro-tmp-"); i >= 0 && strings.HasPrefix(rel, "staging") {
		rel = rel[:i] + ".bistro-tmp-*"
	}
	entry := op + " " + rel
	r.mu.Lock()
	defer r.mu.Unlock()
	if op == "Write…" && len(r.ops) > 0 && r.ops[len(r.ops)-1] == entry {
		return
	}
	r.ops = append(r.ops, entry)
}

func (r *recordingFS) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.ops
	r.ops = nil
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && strings.HasPrefix(ops[j], "Write… ") {
			j++
		}
		sort.Strings(ops[i:j])
		i = j + 1
	}
	return ops
}

func (r *recordingFS) Open(name string) (diskfault.File, error) {
	r.record("Open", name)
	return r.FS.Open(name)
}

func (r *recordingFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_CREATE == 0 {
		return f, err
	}
	r.record("OpenFile", name)
	return recordingFile{f, r}, nil
}

func (r *recordingFS) CreateTemp(dir, pattern string) (diskfault.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.record("CreateTemp", f.Name())
	return recordingFile{f, r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.record("Rename", newpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r *recordingFS) Remove(name string) error {
	r.record("Remove", name)
	return r.FS.Remove(name)
}

func (r *recordingFS) MkdirAll(path string, perm os.FileMode) error {
	r.record("MkdirAll", path)
	return r.FS.MkdirAll(path, perm)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.record("SyncDir", dir)
	return r.FS.SyncDir(dir)
}

type recordingFile struct {
	diskfault.File
	r *recordingFS
}

func (f recordingFile) Write(b []byte) (int, error) {
	f.r.record("Write…", f.Name())
	return f.File.Write(b)
}

func (f recordingFile) Sync() error {
	f.r.record("Sync", f.Name())
	return f.File.Sync()
}

func (f recordingFile) Close() error {
	f.r.record("Close", f.Name())
	return f.File.Close()
}

// TestIngestSyscallOrder pins the exact staging-path operations of one
// arrival, plan-less and planned: every output is fsynced, closed,
// renamed and its directory fsynced before the landing file goes, and
// the plan-less small-file ack path pays nothing beyond that. An upload
// streams into a landing temp that is renamed to its final name before
// that same ingest sequence runs.
func TestIngestSyscallOrder(t *testing.T) {
	cfgSrc := `
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
feed EVENTS {
    pattern "events_%Y%m%d%H.csv"
    normalize "%Y/%m/%d/events_%H.csv"
    plan {
        parse csv
        extract region 1
        route region { "east" EAST }
    }
}
feed EAST { normalize "%Y/%m/%d/east_%H.csv" }
`
	var rec *recordingFS
	s := newServer(t, cfgSrc, func(o *Options) {
		rec = &recordingFS{FS: diskfault.OS(), root: o.Root}
		o.FS = rec
		o.NoSync = false
	})
	ingest := func(name, content string) []string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(s.land.Dir(), name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		rec.take()
		if err := s.IngestLanding(name); err != nil {
			t.Fatal(err)
		}
		return rec.take()
	}

	got := ingest("CPU_POLL7_201009250452.txt", "cpu=42\n")
	want := []string{
		"Open landing/CPU_POLL7_201009250452.txt",
		"MkdirAll staging/CPU",
		"CreateTemp staging/CPU/.bistro-tmp-*",
		"Write… staging/CPU/.bistro-tmp-*",
		"Sync staging/CPU/.bistro-tmp-*",
		"Close staging/CPU/.bistro-tmp-*",
		"Rename staging/CPU/CPU_POLL7_201009250452.txt",
		"SyncDir staging/CPU",
		"Remove landing/CPU_POLL7_201009250452.txt",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan-less ingest ops:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	got = ingest("events_2010092504.csv", "east,1\nwest,2\n")
	want = []string{
		"Open landing/events_2010092504.csv",
		"MkdirAll staging/EAST",
		"CreateTemp staging/EAST/.bistro-tmp-*",
		"MkdirAll staging/EVENTS",
		"CreateTemp staging/EVENTS/.bistro-tmp-*",
		"Write… staging/EAST/.bistro-tmp-*",
		"Write… staging/EVENTS/.bistro-tmp-*",
		"Sync staging/EVENTS/.bistro-tmp-*",
		"Close staging/EVENTS/.bistro-tmp-*",
		"MkdirAll staging/EVENTS/2010/09/25",
		"Rename staging/EVENTS/2010/09/25/events_04.csv",
		"SyncDir staging/EVENTS/2010/09/25",
		"Sync staging/EAST/.bistro-tmp-*",
		"Close staging/EAST/.bistro-tmp-*",
		"MkdirAll staging/EAST/2010/09/25",
		"Rename staging/EAST/2010/09/25/east_04.csv",
		"SyncDir staging/EAST/2010/09/25",
		"Remove landing/events_2010092504.csv",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("planned ingest ops:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	c, srv := loopback(t)
	go s.serveConn(protocol.NewConn(srv))
	conn := protocol.NewConn(c)
	data := []byte("cpu=43\n")
	rec.take()
	if err := conn.Call(protocol.Upload{Name: "CPU_POLL7_201009250453.txt", Data: data, CRC: crc32.ChecksumIEEE(data)}); err != nil {
		t.Fatal(err)
	}
	got = rec.take()
	want = []string{
		"OpenFile landing/.bistro-tmp-CPU_POLL7_201009250453.txt",
		"Write… landing/.bistro-tmp-CPU_POLL7_201009250453.txt",
		"Close landing/.bistro-tmp-CPU_POLL7_201009250453.txt",
		"Rename landing/CPU_POLL7_201009250453.txt",
		"Open landing/CPU_POLL7_201009250453.txt",
		"MkdirAll staging/CPU",
		"CreateTemp staging/CPU/.bistro-tmp-*",
		"Write… staging/CPU/.bistro-tmp-*",
		"Sync staging/CPU/.bistro-tmp-*",
		"Close staging/CPU/.bistro-tmp-*",
		"Rename staging/CPU/CPU_POLL7_201009250453.txt",
		"SyncDir staging/CPU",
		"Remove landing/CPU_POLL7_201009250453.txt",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("upload ops:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
