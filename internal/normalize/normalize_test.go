package normalize

import (
	"bytes"
	"compress/gzip"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bistro/internal/config"
	"bistro/internal/diskfault"
	"bistro/internal/pattern"
)

func TestStagedNamePassthrough(t *testing.T) {
	f := &config.Feed{Path: "SNMP/BPS"}
	got, err := StagedName(f, "BPS_poller1_2010092504.csv.gz", &pattern.Fields{})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("SNMP", "BPS", "BPS_poller1_2010092504.csv.gz")
	if got != want {
		t.Fatalf("staged = %q, want %q", got, want)
	}
}

func TestStagedNameNormalized(t *testing.T) {
	src := pattern.MustCompile("BPS_poller%i_%Y%m%d%H.csv.gz")
	f := &config.Feed{
		Path:      "SNMP/BPS",
		Normalize: pattern.MustCompile("%Y/%m/%d/BPS_poller%i_%H.csv.gz"),
	}
	fields, ok := src.Match("BPS_poller7_2010092504.csv.gz")
	if !ok {
		t.Fatal("no match")
	}
	got, err := StagedName(f, "BPS_poller7_2010092504.csv.gz", fields)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("SNMP", "BPS", "2010", "09", "25", "BPS_poller7_04.csv.gz")
	if got != want {
		t.Fatalf("staged = %q, want %q", got, want)
	}
}

func TestStagedNameExtensionAdjustment(t *testing.T) {
	gz := &config.Feed{Path: "F", Compress: config.CompressGzip}
	got, _ := StagedName(gz, "data.csv", &pattern.Fields{})
	if !strings.HasSuffix(got, "data.csv.gz") {
		t.Errorf("gzip staged = %q", got)
	}
	// Already compressed name keeps one .gz.
	got, _ = StagedName(gz, "data.csv.gz", &pattern.Fields{})
	if !strings.HasSuffix(got, "data.csv.gz") || strings.HasSuffix(got, ".gz.gz") {
		t.Errorf("gzip staged = %q", got)
	}
	gunzip := &config.Feed{Path: "F", Compress: config.CompressGunzip}
	got, _ = StagedName(gunzip, "data.csv.gz", &pattern.Fields{})
	if !strings.HasSuffix(got, "data.csv") || strings.HasSuffix(got, ".gz") {
		t.Errorf("gunzip staged = %q", got)
	}
	// Bunzip2 strips either spelling of the bzip2 extension; the staged
	// name must not keep claiming an encoding the content lost.
	bunzip := &config.Feed{Path: "F", Compress: config.CompressBunzip2}
	for _, name := range []string{"data.csv.bz2", "data.csv.bzip2"} {
		got, _ = StagedName(bunzip, name, &pattern.Fields{})
		if !strings.HasSuffix(got, "data.csv") {
			t.Errorf("bunzip2 staged(%q) = %q, want .csv suffix", name, got)
		}
	}
}

func TestStagedNameRenderError(t *testing.T) {
	f := &config.Feed{
		Path:      "F",
		Normalize: pattern.MustCompile("%Y/%m/file_%i.csv"),
	}
	// Fields lack the integer the template needs.
	if _, err := StagedName(f, "x", &pattern.Fields{}); err == nil {
		t.Fatal("expected render error")
	}
}

func writeFile(t *testing.T, dir, name string, content []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProcessCopy(t *testing.T) {
	dir := t.TempDir()
	content := []byte("hello,world\n1,2\n")
	src := writeFile(t, dir, "in.csv", content)
	dst := filepath.Join(dir, "nested", "out.csv")
	res, err := ProcessFS(diskfault.OS(), src, dst, config.CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != int64(len(content)) {
		t.Errorf("size = %d, want %d", res.Size, len(content))
	}
	if res.Checksum != crc32.ChecksumIEEE(content) {
		t.Errorf("checksum mismatch")
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("content mismatch")
	}
}

func TestProcessGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	content := bytes.Repeat([]byte("measurement,42\n"), 1000)
	src := writeFile(t, dir, "in.csv", content)

	gzPath := filepath.Join(dir, "out.csv.gz")
	res, err := ProcessFS(diskfault.OS(), src, gzPath, config.CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size >= int64(len(content)) {
		t.Errorf("gzip did not shrink: %d >= %d", res.Size, len(content))
	}
	// Verify the staged checksum matches the staged bytes.
	sum, n, err := ChecksumFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum != res.Checksum || n != res.Size {
		t.Errorf("ChecksumFile = (%x,%d), Process said (%x,%d)", sum, n, res.Checksum, res.Size)
	}

	// Decompress back and compare content.
	plainPath := filepath.Join(dir, "back.csv")
	if _, err := ProcessFS(diskfault.OS(), gzPath, plainPath, config.CompressGunzip); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("gzip round trip corrupted content")
	}
}

func TestProcessGunzipRejectsPlain(t *testing.T) {
	dir := t.TempDir()
	src := writeFile(t, dir, "plain.txt", []byte("not gzip"))
	if _, err := ProcessFS(diskfault.OS(), src, filepath.Join(dir, "out"), config.CompressGunzip); err == nil {
		t.Fatal("expected gunzip error on plain content")
	}
	// Failed normalization must not leave temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".bistro-tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestProcessMissingSource(t *testing.T) {
	dir := t.TempDir()
	if _, err := ProcessFS(diskfault.OS(), filepath.Join(dir, "nope"), filepath.Join(dir, "out"), config.CompressNone); err == nil {
		t.Fatal("expected error for missing source")
	}
}

func TestProcessEmptyFile(t *testing.T) {
	dir := t.TempDir()
	src := writeFile(t, dir, "empty", nil)
	res, err := ProcessFS(diskfault.OS(), src, filepath.Join(dir, "out"), config.CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 0 || res.Checksum != 0 {
		t.Errorf("empty file result = %+v", res)
	}
}

func TestGzipOutputIsStandard(t *testing.T) {
	dir := t.TempDir()
	content := []byte("interop check")
	src := writeFile(t, dir, "in", content)
	gzPath := filepath.Join(dir, "out.gz")
	if _, err := ProcessFS(diskfault.OS(), src, gzPath, config.CompressGzip); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Error("standard gzip reader saw different content")
	}
}

func BenchmarkProcessCopy(b *testing.B) {
	dir := b.TempDir()
	content := bytes.Repeat([]byte("x"), 64*1024)
	src := filepath.Join(dir, "in")
	if err := os.WriteFile(src, content, 0o644); err != nil {
		b.Fatal(err)
	}
	dst := filepath.Join(dir, "out")
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessFS(diskfault.OS(), src, dst, config.CompressNone); err != nil {
			b.Fatal(err)
		}
	}
}

// bzip2Hello is "hello\n" compressed with bzip2 (stdlib bzip2 cannot
// write, so the fixture is pre-compressed bytes).
var bzip2Hello = []byte{
	0x42, 0x5a, 0x68, 0x39, 0x31, 0x41, 0x59, 0x26, 0x53, 0x59, 0xc1, 0xc0,
	0x80, 0xe2, 0x00, 0x00, 0x01, 0x41, 0x00, 0x00, 0x10, 0x02, 0x44, 0xa0,
	0x00, 0x30, 0xcd, 0x00, 0xc3, 0x46, 0x29, 0x97, 0x17, 0x72, 0x45, 0x38,
	0x50, 0x90, 0xc1, 0xc0, 0x80, 0xe2,
}

func TestProcessBunzip2(t *testing.T) {
	dir := t.TempDir()
	src := writeFile(t, dir, "in.txt.bz2", bzip2Hello)
	dst := filepath.Join(dir, "out.txt")
	res, err := ProcessFS(diskfault.OS(), src, dst, config.CompressBunzip2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\n" {
		t.Fatalf("content = %q", got)
	}
	if res.Size != 6 {
		t.Fatalf("size = %d", res.Size)
	}
}

func TestBunzip2ExtensionAdjustment(t *testing.T) {
	f := &config.Feed{Path: "F", Compress: config.CompressBunzip2}
	got, _ := StagedName(f, "poller1_soft_version.csv.bz2", &pattern.Fields{})
	if !strings.HasSuffix(got, "poller1_soft_version.csv") || strings.HasSuffix(got, ".bz2") {
		t.Fatalf("staged = %q", got)
	}
}

func TestConfigParsesBunzip2(t *testing.T) {
	// Indirect: the config keyword must map to the normalize mode.
	if config.CompressBunzip2.String() != "bunzip2" {
		t.Fatal("mode name")
	}
}
