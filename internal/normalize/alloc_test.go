package normalize

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bistro/internal/config"
	"bistro/internal/diskfault"
)

// TestStagingAllocatesNoCopyBuffer: staging copies through
// diskfault.Copy's pooled buffer, so what ProcessFS allocates per file
// is handles, names and the checksum state — under 8 KiB, and the same
// objects for a 4 KiB file as for a 1 MiB one.
func TestStagingAllocatesNoCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	dir := t.TempDir()
	objects := map[int]float64{}
	for _, size := range []int{4 << 10, 1 << 20} {
		src := filepath.Join(dir, fmt.Sprintf("in-%d", size))
		if err := os.WriteFile(src, bytes.Repeat([]byte("x"), size), 0o644); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "staging", "FEED", fmt.Sprintf("out-%d", size))
		stage := func() {
			if _, err := ProcessFS(diskfault.OS(), src, dst, config.CompressNone); err != nil {
				t.Fatal(err)
			}
		}
		stage() // the pool's buffer, the staging directories
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			stage()
		}
		runtime.ReadMemStats(&after)
		perFile := float64(after.TotalAlloc-before.TotalAlloc) / runs
		objects[size] = testing.AllocsPerRun(runs, stage)
		t.Logf("%d-byte file: %.0f bytes, %.0f objects allocated per staging", size, perFile, objects[size])
		if perFile >= 8<<10 {
			t.Errorf("staging a %d-byte file allocated %.0f bytes, want < 8 KiB", size, perFile)
		}
	}
	if objects[4<<10] != objects[1<<20] {
		t.Errorf("staging allocated %.0f objects for 4 KiB and %.0f for 1 MiB, want the same", objects[4<<10], objects[1<<20])
	}
}
