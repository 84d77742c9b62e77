package transport

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func file(name string, data []byte) File {
	return File{FileID: 1, Feed: "F", Name: name, Data: data, CRC: crc32.ChecksumIEEE(data)}
}

func TestLocalDirDeliver(t *testing.T) {
	dir := t.TempDir()
	l := NewLocalDir()
	l.Register("sub", dir)
	content := []byte("payload")
	if err := l.Deliver("sub", file("nested/dir/f.csv", content)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "nested", "dir", "f.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("content = %q", got)
	}
}

func TestLocalDirChecksumRejected(t *testing.T) {
	l := NewLocalDir()
	l.Register("sub", t.TempDir())
	f := file("f.csv", []byte("data"))
	f.CRC++
	if err := l.Deliver("sub", f); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

// A name that would resolve outside the subscriber's directory is
// refused and nothing is written anywhere.
func TestLocalDirEscapingNameRejected(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "dest")
	l := NewLocalDir()
	l.Register("sub", dir)
	for _, name := range []string{"../outside/f.csv", "in/../../f.csv", "/abs/f.csv", ""} {
		if err := l.Deliver("sub", file(name, []byte("data"))); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 0 {
		t.Fatalf("the refused deliveries left %v", entries)
	}
}

func TestLocalDirUnknownSubscriber(t *testing.T) {
	l := NewLocalDir()
	if err := l.Deliver("ghost", file("f", nil)); err == nil {
		t.Fatal("unknown subscriber accepted")
	}
	if err := l.Ping("ghost"); err == nil {
		t.Fatal("unknown subscriber pingable")
	}
	if err := l.Notify("ghost", File{}); err == nil {
		t.Fatal("unknown subscriber notified")
	}
}

func TestLocalDirNotify(t *testing.T) {
	l := NewLocalDir()
	l.Register("sub", t.TempDir())
	if err := l.Notify("sub", File{FileID: 3, Feed: "F", Name: "x", Size: 10}); err != nil {
		t.Fatal(err)
	}
	ns := l.Notifications("sub")
	if len(ns) != 1 || ns[0].FileID != 3 || ns[0].Size != 10 {
		t.Fatalf("notifications = %+v", ns)
	}
	// Drained.
	if len(l.Notifications("sub")) != 0 {
		t.Fatal("notifications not drained")
	}
}

func TestLocalDirPingAndTrigger(t *testing.T) {
	l := NewLocalDir()
	l.Register("sub", t.TempDir())
	if err := l.Ping("sub"); err != nil {
		t.Fatal(err)
	}
	if err := l.Trigger("sub", "cmd", nil); err != nil {
		t.Fatal(err)
	}
}

func benchDeliver(b *testing.B, size int, stream bool) {
	dir := b.TempDir()
	l := NewLocalDir()
	l.Register("sub", dir)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	staged := filepath.Join(dir, "staged.bin")
	if err := os.WriteFile(staged, payload, 0o644); err != nil {
		b.Fatal(err)
	}
	f := File{
		FileID: 1, Feed: "F", Name: "out.bin",
		CRC: crc32.ChecksumIEEE(payload), Size: int64(len(payload)),
	}
	if stream {
		f.Path = staged
	} else {
		f.Data = payload
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Deliver("sub", f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeliverInline8MB(b *testing.B)    { benchDeliver(b, 8<<20, false) }
func BenchmarkDeliverStreaming8MB(b *testing.B) { benchDeliver(b, 8<<20, true) }
