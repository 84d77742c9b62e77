//go:build linux

package benchmark

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Env is the environment block attached to every result: enough to
// tell whether two result sets may be compared at all.
type Env struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	FSType     string  `json:"work_dir_fs"`
	FsyncP50Us float64 `json:"fsync_probe_p50_us"`
	FsyncP99Us float64 `json:"fsync_probe_p99_us"`
	Network    string  `json:"network"`
}

// fsNames maps statfs magic numbers to names for the common cases.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", int64(st.Type)), nil
}

// memoryBacked reports filesystems whose fsync is free; storage
// metrics taken there describe nothing a deployment would see.
func memoryBacked(fs string) bool { return fs == "tmpfs" || fs == "ramfs" }

// fsyncProbe times n write+fsync rounds of one 4 KiB block in dir.
func fsyncProbe(dir string, n int) (p50, p99 float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.WriteAt(block, 0); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		us = append(us, usOf(time.Since(start)))
	}
	return percentile(us, 50), percentile(us, 99), nil
}

// commitID is the VCS revision the binary was built from, when the
// toolchain stamped one (a checkout that is not a repository has none).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// probeEnv fills the environment block for a run working under dir,
// refusing a memory-backed dir unless allowMemFS.
func probeEnv(dir string, allowMemFS bool) (Env, error) {
	env := Env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commitID(),
		Network:    "loopback, in-process clients",
	}
	fs, err := fsType(dir)
	if err != nil {
		return env, err
	}
	env.FSType = fs
	if memoryBacked(fs) && !allowMemFS {
		return env, fmt.Errorf("work dir %s is on %s: fsyncs are free there, so storage metrics would be meaningless; choose a disk-backed directory with -dir", dir, fs)
	}
	env.FsyncP50Us, env.FsyncP99Us, err = fsyncProbe(dir, 300)
	return env, err
}

// settle flushes dirty filesystem state (sync), so that what was just
// written or deleted — gigabytes of staged files, and the discards
// their removal queues on a thin-provisioned disk — is paid for now
// and not inside the next measured phase or the next run.
func settle() { syscall.Sync() }

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world.
func allocCounters() (objects, bytes uint64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// gcPauseTotal is the cumulative stop-the-world GC pause time.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
