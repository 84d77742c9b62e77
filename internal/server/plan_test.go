package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bistro/internal/subclient"
)

// planTestConfig declares one planned feed routing into a derived
// feed that is consumed every way a leaf feed can be: a TCP push
// subscriber, a shared delivery channel, and the HTTP pull plane.
const planTestConfig = `
window 72h

feed EVENTS {
    pattern "events_%Y%m%d%H.csv"
    plan {
        parse csv
        validate { columns 2 }
        extract region 1
        route region {
            "east" EAST
        }
    }
}
feed EAST { }

subscriber wh { dest "ev-in" subscribe EVENTS }
subscriber c1 { dest "c1-in" subscribe EAST }
subscriber c2 { dest "c2-in" subscribe EAST }

channels {
    group eastg {
        feed EAST
        member c1
        member c2
    }
}

http {
    listen "127.0.0.1:0"
    principal tool {
        token "t0k3n"
        feed EAST
    }
}
`

// TestPlanDerivedFeedEndToEnd drives a routed arrival all the way out
// every data plane: the derived feed is staged, recorded with
// provenance, fanned out through its channel, and pullable over HTTP
// with correct sequence cursors.
func TestPlanDerivedFeedEndToEnd(t *testing.T) {
	s := newServer(t, planTestConfig, nil)
	input := "east,1\nwest,2\nbad\neast,3\n"
	if err := s.Deposit("events_2010092504.csv", []byte(input)); err != nil {
		t.Fatal(err)
	}

	// Primary staged output keeps only the unrouted, valid records.
	pri := filepath.Join(s.stage, "EVENTS", "events_2010092504.csv")
	if got, err := os.ReadFile(pri); err != nil || string(got) != "west,2\n" {
		t.Fatalf("primary staged = %q, %v", got, err)
	}
	// Derived staged output holds the routed records under the derived
	// feed's own staging tree.
	east := filepath.Join(s.stage, "EAST", "events_2010092504.csv")
	if got, err := os.ReadFile(east); err != nil || string(got) != "east,1\neast,3\n" {
		t.Fatalf("derived staged = %q, %v", got, err)
	}
	// The validate reject landed in the plan quarantine, tagged with
	// its reason.
	rej := filepath.Join(s.quar, "_plan", "EVENTS", "events_2010092504.csv.rejects")
	if got, err := os.ReadFile(rej); err != nil || !strings.Contains(string(got), "columns 1 (want 2)") {
		t.Fatalf("rejects = %q, %v", got, err)
	}
	// Landing is clear.
	entries, _ := os.ReadDir(s.land.Dir())
	if len(entries) != 0 {
		t.Fatalf("landing not empty: %v", entries)
	}

	// Receipts: parent + derived committed together, the derived one
	// carrying Origin provenance back to the parent.
	files := s.Store().AllFiles()
	if len(files) != 2 {
		t.Fatalf("files = %+v, want 2", files)
	}
	parent, derived := files[0], files[1]
	if parent.Feeds[0] != "EVENTS" || parent.Origin != 0 {
		t.Fatalf("parent = %+v", parent)
	}
	if derived.Feeds[0] != "EAST" || derived.Origin != parent.ID {
		t.Fatalf("derived = %+v, want origin %d", derived, parent.ID)
	}

	// The primary subscriber gets the lean primary file.
	waitFor(t, "primary delivery", func() bool {
		_, err := os.Stat(filepath.Join(s.root, "ev-in", "EVENTS", "events_2010092504.csv"))
		return err == nil
	})
	// The channel fans the derived file to both members with a group
	// receipt, like any leaf feed.
	for _, dest := range []string{"c1-in", "c2-in"} {
		want := filepath.Join(s.root, dest, "EAST", "events_2010092504.csv")
		waitFor(t, "channel delivery to "+dest, func() bool {
			got, err := os.ReadFile(want)
			return err == nil && string(got) == "east,1\neast,3\n"
		})
	}
	if _, ok := s.Store().GroupCovers("eastg", derived.ID); !ok {
		t.Fatal("group receipt does not cover the derived file")
	}

	// The HTTP pull plane serves the derived feed's log and content
	// with the derived receipt's sequence number.
	resp, body := pullOnce(t, s.HTTPAddr(), "/feeds/EAST")
	if resp.StatusCode != 200 {
		t.Fatalf("log status %d: %s", resp.StatusCode, body)
	}
	var page pullPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Seq != derived.ID {
		t.Fatalf("page = %+v, want seq %d", page, derived.ID)
	}
	resp, body = pullOnce(t, s.HTTPAddr(), fmt.Sprintf("/feeds/EAST/files/%d", derived.ID))
	if resp.StatusCode != 200 || string(body) != "east,1\neast,3\n" {
		t.Fatalf("content status %d body %q", resp.StatusCode, body)
	}
}

// TestPlanDerivedFeedTCPPush wires a real subscriber daemon to the
// derived feed: a routed record set must arrive over TCP like any
// directly-deposited file.
func TestPlanDerivedFeedTCPPush(t *testing.T) {
	subDir := t.TempDir()
	daemon, err := subclient.Start("127.0.0.1:0", subclient.Options{Name: "whE", DestDir: subDir})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()

	cfgSrc := fmt.Sprintf(`
feed EVENTS {
    pattern "events_%%Y%%m%%d%%H.csv"
    plan {
        parse csv
        extract region 1
        route region { "east" EAST }
    }
}
feed EAST { }
subscriber whE {
    host "%s"
    dest "in"
    subscribe EAST
}
`, daemon.Addr())
	s := newServer(t, cfgSrc, nil)
	if err := s.Deposit("events_2010092504.csv", []byte("east,1\nwest,2\n")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(subDir, "in", "EAST", "events_2010092504.csv")
	waitFor(t, "TCP push of derived file", func() bool {
		_, err := os.Stat(want)
		return err == nil
	})
	if got, _ := os.ReadFile(want); string(got) != "east,1\n" {
		t.Fatalf("pushed content = %q", got)
	}
}

// TestPlanEnrichAtDelivery pins IDEA's at-delivery placement: the
// staged file stays lean, and each subscriber push carries the join.
func TestPlanEnrichAtDelivery(t *testing.T) {
	cfgSrc := `
feed EVENTS {
    pattern "events_%Y%m%d%H.csv"
    plan {
        parse csv
        extract region 1
        enrich {
            table "tables/regions.csv"
            key region
            at delivery
        }
    }
}
subscriber wh { dest "in" subscribe EVENTS }
`
	s := newServer(t, cfgSrc, func(o *Options) {
		dir := filepath.Join(o.Root, "tables")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "regions.csv"), []byte("east,us\nwest,eu\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Deposit("events_2010092504.csv", []byte("east,1\nwest,2\n")); err != nil {
		t.Fatal(err)
	}
	// Staged: lean, un-enriched.
	pri := filepath.Join(s.stage, "EVENTS", "events_2010092504.csv")
	if got, err := os.ReadFile(pri); err != nil || string(got) != "east,1\nwest,2\n" {
		t.Fatalf("staged = %q, %v (want lean records)", got, err)
	}
	// Delivered: joined per push.
	want := filepath.Join(s.root, "in", "EVENTS", "events_2010092504.csv")
	waitFor(t, "enriched delivery", func() bool {
		got, err := os.ReadFile(want)
		return err == nil && string(got) == "east,1,us\nwest,2,eu\n"
	})
}

// TestPlanlessStagingGolden pins the no-plan path byte for byte: a
// config without plan blocks must stage exactly the layout and bytes
// the pre-plan pipeline produced (golden expectations below were
// captured from the seed behavior), and every receipt must describe the
// staged file as it sits on disk.
func TestPlanlessStagingGolden(t *testing.T) {
	cfgSrc := `
window 72h
feedgroup SNMP {
    feed BPS {
        pattern "BPS_poller%i_%Y%m%d%H%M.csv"
        normalize "%Y/%m/%d/BPS_poller%i_%H%M.csv"
        compress gzip
    }
    feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt" }
    feed MEM {
        pattern "MEM_POLL%i_%Y%m%d%H%M.txt.gz"
        compress gunzip
    }
}
`
	s := newServer(t, cfgSrc, nil)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("mem=7\n"))
	zw.Close()
	deposits := map[string]string{
		"BPS_poller1_201009250451.csv":  "a,b\n1,2\n",
		"CPU_POLL7_201009250452.txt":    "cpu=42\n",
		"MEM_POLL3_201009250453.txt.gz": gz.String(),
		"junk.tmp":                      "x",
	}
	for name, content := range deposits {
		if err := s.Deposit(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	bps := filepath.Join("SNMP", "BPS", "2010", "09", "25", "BPS_poller1_0451.csv.gz")
	golden := map[string]string{
		bps: "a,b\n1,2\n", // compared gunzipped below
		filepath.Join("SNMP", "CPU", "CPU_POLL7_201009250452.txt"): "cpu=42\n",
		filepath.Join("SNMP", "MEM", "MEM_POLL3_201009250453.txt"): "mem=7\n",
		filepath.Join("_unmatched", "junk.tmp"):                    "x",
	}
	var got []string
	filepath.Walk(s.stage, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(s.stage, path)
		got = append(got, rel)
		want, ok := golden[rel]
		if !ok {
			t.Errorf("unexpected staged file %s", rel)
			return nil
		}
		data, _ := os.ReadFile(path)
		if rel == bps {
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Errorf("%s: %v", rel, err)
				return nil
			}
			if data, err = io.ReadAll(zr); err != nil {
				t.Errorf("%s: %v", rel, err)
			}
		}
		if string(data) != want {
			t.Errorf("%s = %q, want %q", rel, data, want)
		}
		return nil
	})
	if len(got) != len(golden) {
		t.Fatalf("staged files = %v, want %d entries", got, len(golden))
	}

	files := s.Store().AllFiles()
	if len(files) != 3 {
		t.Fatalf("receipts = %+v, want 3 (the unmatched file has none)", files)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(s.stage, filepath.FromSlash(f.StagedPath)))
		if err != nil {
			t.Fatal(err)
		}
		if f.Size != int64(len(data)) || f.Checksum != crc32.ChecksumIEEE(data) {
			t.Errorf("receipt %s: size %d crc %08x, staged file has %d bytes crc %08x",
				f.StagedPath, f.Size, f.Checksum, len(data), crc32.ChecksumIEEE(data))
		}
	}
}
