package diskfault

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLocalName(t *testing.T) {
	for _, name := range []string{"f", "a/b.csv", "..hidden", "CPU/poll..txt", "a..b", "a/../b", "./f"} {
		if _, err := LocalName(name); err != nil {
			t.Errorf("LocalName(%q) refused: %v", name, err)
		}
	}
	for _, name := range []string{"", ".", "./", "a/..", "..", "../f", "a/../../f", "/abs", "/"} {
		if rel, err := LocalName(name); err == nil {
			t.Errorf("LocalName(%q) accepted as %q", name, rel)
		}
	}
}

// FuzzLocalName: whenever a name is accepted, joining it to a root
// gives a path strictly under that root.
func FuzzLocalName(f *testing.F) {
	for _, seed := range []string{"", ".", "..", "a/..", "../x", "/abs", "a..b", "..hidden", "a/./b/../c", "a//b", "./"} {
		f.Add(seed)
	}
	const root = "/srv/bistro/dest"
	f.Fuzz(func(t *testing.T, name string) {
		rel, err := LocalName(name)
		if err != nil {
			return
		}
		if p := filepath.Join(root, rel); !strings.HasPrefix(p, root+string(filepath.Separator)) {
			t.Fatalf("LocalName(%q) = %q joins to %q, outside %s", name, rel, p, root)
		}
	})
}

// A write that fails its CRC or its name leaves nothing; a good one
// leaves only its file.
func TestReceive(t *testing.T) {
	root := t.TempDir()
	data := []byte("payload")
	crc := crc32.ChecksumIEEE(data)
	if err := Receive(OS(), root, "d/f", bytes.NewReader(data), crc^1, true); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad CRC: err = %v", err)
	}
	if err := Receive(OS(), root, "../f", bytes.NewReader(data), crc, true); err == nil {
		t.Fatal("escaping name accepted")
	}
	if entries, _ := os.ReadDir(filepath.Join(root, "d")); len(entries) != 0 {
		t.Fatalf("refusals left %v", entries)
	}
	if err := Receive(OS(), root, "d/f", bytes.NewReader(data), crc^1, false); err != nil {
		t.Fatalf("unchecked write: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(root, "d", "f")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content %q, %v", got, err)
	}
}
