//go:build linux

package benchmark

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"time"
)

// File is one generated deposit. Everything about it is a function of
// (workload, seed, K): the same seed replays the same names, sizes and
// payload bytes however fast the system under test consumes them.
type File struct {
	// K is the file's index in the seeded sequence.
	K int
	// Name is the landing-relative name ("srcN/...").
	Name string
	// Data is the payload. It aliases the generator's pool and must
	// not be mutated.
	Data []byte
	// CRC is the IEEE CRC32 of Data.
	CRC uint32
	// Ref is the plan reference (nil on plan-less workloads).
	Ref *PlanRef
}

// PlanRef is what the plan_ingest plan must produce from one file,
// computed by the generator independently of internal/plan.
type PlanRef struct {
	East, West, Rejects int
}

// Generator produces the seeded file sequence of one workload.
type Generator struct {
	workload string
	seed     int64
	pool     []byte
	variants []planVariant // plan_ingest only
}

type planVariant struct {
	gz  []byte
	crc uint32
	ref PlanRef
}

// genBase anchors every generated timestamp field.
var genBase = time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)

const (
	smallFileSize = 4 << 10
	mib           = 1 << 20
	largeBlock    = 17 // 16 one-MiB files + 1 sixteen-MiB file: equal bytes of each
	planVariants  = 16
	planRecords   = 1000
	planHosts     = 10000
	sourceDirs    = 8
)

// smallKinds × smallRegions are small_push's 100 feeds, named after
// the paper's poller conventions (BPS_poller1_2010092504.csv).
var (
	smallKinds   = []string{"BPS", "PPS", "CPU", "MEMORY", "LOSS", "LATENCY", "JITTER", "ALARM", "TOPOLOGY", "CONFIG"}
	smallRegions = []string{"NE", "SE", "MW", "SW", "NW", "CA", "EU", "AP", "LA", "AF"}
)

// NewGenerator builds the seeded pools for workload. Pool building is
// harness cost and stays outside setup_s.
func NewGenerator(workload string, seed int64) (*Generator, error) {
	g := &Generator{workload: workload, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "small_push", "http_pull":
		g.pool = make([]byte, mib+smallFileSize)
		rng.Read(g.pool)
	case "large_push":
		g.pool = make([]byte, 32*mib)
		rng.Read(g.pool)
	case "plan_ingest":
		for v := 0; v < planVariants; v++ {
			pv, err := buildPlanVariant(rng)
			if err != nil {
				return nil, err
			}
			g.variants = append(g.variants, pv)
		}
	default:
		return nil, fmt.Errorf("benchmark: unknown workload %q", workload)
	}
	return g, nil
}

func crcOf(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// mix is splitmix64 over (seed, k, salt): per-file randomness without
// per-file RNG state, so File(k) is O(1) and order-independent.
func (g *Generator) mix(k int, salt uint64) uint64 {
	z := uint64(g.seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9 + salt*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// unit is a seeded value in [0, 1) for file k (the paced schedule's
// position inside the file's interval).
func (g *Generator) unit(k int) float64 {
	return float64(g.mix(k, 7)>>11) / (1 << 53)
}

func stamp(k int) string {
	return genBase.Add(time.Duration(k) * time.Second).Format("20060102150405")
}

// File returns the k-th file of the sequence.
func (g *Generator) File(k int) File {
	f := File{K: k}
	dir := 1 + int(g.mix(k, 1)%sourceDirs)
	switch g.workload {
	case "small_push":
		feed := int(g.mix(k, 2) % 100)
		f.Name = fmt.Sprintf("src%d/%s_%s_poller%d_%s.csv", dir,
			smallKinds[feed/10], smallRegions[feed%10], 1+g.mix(k, 3)%40, stamp(k))
		off := int(g.mix(k, 4) % mib)
		f.Data = g.pool[off : off+smallFileSize]
	case "http_pull":
		f.Name = fmt.Sprintf("src%d/TICK_%d.dat", dir, 1000000+k)
		off := int(g.mix(k, 4) % mib)
		f.Data = g.pool[off : off+smallFileSize]
	case "large_push":
		f.Name = fmt.Sprintf("src%d/BULK_%d_%s.bin", dir, k, stamp(k))
		size := mib
		block := k / largeBlock
		if k%largeBlock == int(g.mix(block, 5)%largeBlock) {
			size = 16 * mib
		}
		off := int(g.mix(k, 4) % (16 * mib))
		f.Data = g.pool[off : off+size]
	case "plan_ingest":
		v := &g.variants[g.mix(k, 6)%planVariants]
		f.Name = fmt.Sprintf("src%d/EV_%d_%s.csv.gz", dir, k, stamp(k))
		f.Data = v.gz
		f.CRC = v.crc
		ref := v.ref
		f.Ref = &ref
		return f
	}
	f.CRC = crcOf(f.Data)
	return f
}

// planHostKey is the side-table key of host h.
func planHostKey(h int) string { return fmt.Sprintf("h%05d", h) }

// PlanSideTable renders the 10k-row enrich side table (key, rack, dc).
func PlanSideTable() []byte {
	var b bytes.Buffer
	for h := 0; h < planHosts; h++ {
		fmt.Fprintf(&b, "%s,rack%d,dc%d\n", planHostKey(h), h%400, h%7)
	}
	return b.Bytes()
}

// buildPlanVariant renders one ~50 KiB CSV of planRecords records
// (host, region, value, message), every 487th short one column so
// validate rejects it, and gzips it.
func buildPlanVariant(rng *rand.Rand) (planVariant, error) {
	const letters = "abcdefghijklmnopqrstuvwxyz "
	var raw bytes.Buffer
	var ref PlanRef
	msg := make([]byte, 32)
	for i := 0; i < planRecords; i++ {
		for j := range msg {
			msg[j] = letters[rng.Intn(len(letters))]
		}
		host := planHostKey(rng.Intn(planHosts))
		region := "east"
		if rng.Intn(2) == 1 {
			region = "west"
		}
		if i%487 == 486 {
			fmt.Fprintf(&raw, "%s,%s,%d\n", host, region, rng.Intn(100000))
			ref.Rejects++
			continue
		}
		fmt.Fprintf(&raw, "%s,%s,%d,%s\n", host, region, rng.Intn(100000), strings.TrimSpace(string(msg)))
		if region == "east" {
			ref.East++
		} else {
			ref.West++
		}
	}
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if err != nil {
		return planVariant{}, err
	}
	if _, err := zw.Write(raw.Bytes()); err != nil {
		return planVariant{}, err
	}
	if err := zw.Close(); err != nil {
		return planVariant{}, err
	}
	return planVariant{gz: gz.Bytes(), crc: crcOf(gz.Bytes()), ref: ref}, nil
}
