package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bistro/internal/sourceclient"
)

// bigSize is the file the streaming pins move: large enough that
// holding it in memory anywhere on its way shows against the 1/8 bound.
const bigSize = 64 << 20

// writeBig writes size bytes to path, each MiB a different shift of one
// pattern, so a misplaced or repeated block does not compare equal.
func writeBig(t *testing.T, path string, size int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const block = 1 << 20
	pattern := make([]byte, block+251)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	for off := 0; off < size; off += block {
		shift := off / block % 251
		if _, err := f.Write(pattern[shift : shift+min(block, size-off)]); err != nil {
			t.Fatal(err)
		}
	}
}

// sameContent fails t unless the files at a and b hold the same bytes,
// compared a MiB at a time.
func sameContent(t *testing.T, a, b string) {
	t.Helper()
	fa, err := os.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	bufA, bufB := make([]byte, 1<<20), make([]byte, 1<<20)
	for off := 0; ; off += len(bufA) {
		na, errA := io.ReadFull(fa, bufA)
		nb, errB := io.ReadFull(fb, bufB)
		if na != nb || !bytes.Equal(bufA[:na], bufB[:nb]) {
			t.Fatalf("%s and %s differ in the MiB at offset %d", a, b, off)
		}
		if errA != nil || errB != nil {
			if !isEnd(errA) || !isEnd(errB) {
				t.Fatalf("reading %s: %v; %s: %v", a, errA, b, errB)
			}
			return
		}
	}
}

func isEnd(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }

// checkStreamed runs send, a transfer of bigSize bytes, and fails t if
// it fails or if the whole process allocated an eighth of the bytes or
// more meanwhile; under -race, whose shadow allocations make the count
// meaningless, the count is only logged.
func checkStreamed(t *testing.T, what string, send func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := send()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%s: %d bytes allocated for a %d-byte file", what, allocated, bigSize)
	if !raceEnabled && allocated >= bigSize/8 {
		t.Errorf("%s allocated %d bytes, want < %d", what, allocated, bigSize/8)
	}
}

// stagedPath waits until s has ingested n files and returns where it
// staged the one named name.
func stagedPath(t *testing.T, s *Server, n int, name string) string {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d files ingested", n), func() bool { return s.Store().Stats().Files == n })
	for _, meta := range s.Store().AllFiles() {
		if meta.Name == name {
			return filepath.Join(s.stage, filepath.FromSlash(meta.StagedPath))
		}
	}
	t.Fatalf("no receipt for %s", name)
	return ""
}

// TestUploadFileStreams: sourceclient.UploadFile moves a file of any
// size through a copy buffer: a 64 MiB file arrives byte-identical, and
// the process (client and server both) allocates under an eighth of it
// while it is sent.
func TestUploadFileStreams(t *testing.T) {
	s := newServer(t, `feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }`, func(o *Options) {
		o.Listen = "127.0.0.1:0"
	})
	name := "CPU_POLL1_201009250451.txt"
	src := filepath.Join(t.TempDir(), name)
	writeBig(t, src, bigSize)
	client, err := sourceclient.Dial(s.Addr(), "poller1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	checkStreamed(t, "UploadFile", func() error { return client.UploadFile(name, src) })
	sameContent(t, src, stagedPath(t, s, 1, name))
}

// TestClusterRelayStreams: both relays stream. A 64 MiB UploadFile to
// the node that does not own the feed, and a 64 MiB file deposited in
// that node's landing and announced with FileReady, each reach the
// owner byte-identical while the process allocates under an eighth of
// the file; neither leaves a temp behind in either landing directory.
func TestClusterRelayStreams(t *testing.T) {
	nodeA, nodeB, _, feedB := startTwoNodeCluster(t)
	client, err := sourceclient.Dial(nodeA.Addr(), "poller1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	uploaded := fmt.Sprintf("%s_201009250451.txt", feedB)
	src := filepath.Join(t.TempDir(), uploaded)
	writeBig(t, src, bigSize)
	checkStreamed(t, "relayed UploadFile", func() error { return client.UploadFile(uploaded, src) })
	sameContent(t, src, stagedPath(t, nodeB, 1, uploaded))

	announced := fmt.Sprintf("%s_201009250452.txt", feedB)
	landed := filepath.Join(nodeA.land.Dir(), announced)
	writeBig(t, landed, bigSize) // the bytes src holds
	checkStreamed(t, "FileReady relay", func() error { return client.FileReady(announced) })
	sameContent(t, src, stagedPath(t, nodeB, 2, announced))
	if _, err := os.Stat(landed); !os.IsNotExist(err) {
		t.Fatalf("the relayed deposit is still in node a's landing (%v)", err)
	}
	for _, s := range []*Server{nodeA, nodeB} {
		if temps := landingTemps(t, s); len(temps) != 0 {
			t.Fatalf("temps left in landing: %v", temps)
		}
	}
	if files := nodeA.Store().Stats().Files; files != 0 {
		t.Fatalf("node a ingested %d files, want 0", files)
	}
}
