package server

import (
	"os"
	"path/filepath"
	"testing"
)

const channelConfig = `
window 72h

feedgroup SNMP {
    feed BPS {
        pattern "BPS_poller%i_%Y%m%d%H%M.csv"
        normalize "%Y/%m/%d/BPS_poller%i_%H%M.csv"
    }
}

subscriber wh1 {
    dest "wh1-in"
    subscribe SNMP/BPS
}

subscriber wh2 {
    dest "wh2-in"
    subscribe SNMP/BPS
}

channels {
    group ticks {
        feed SNMP/BPS
        member wh1
        member wh2
    }
}
`

// A channels block in the config must route the feed through the group
// broker: both members get the file, the receipt is a single group
// record (no per-member receipts), and /statusz reports channel stats.
func TestChannelConfigDeliversViaGroup(t *testing.T) {
	s := newServer(t, channelConfig, nil)
	if err := s.Deposit("BPS_poller1_201009250451.csv", []byte("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	rel := filepath.Join("SNMP", "BPS", "2010", "09", "25", "BPS_poller1_0451.csv")
	for _, dest := range []string{"wh1-in", "wh2-in"} {
		want := filepath.Join(s.root, dest, rel)
		waitFor(t, "channel delivery to "+dest, func() bool {
			_, err := os.Stat(want)
			return err == nil
		})
	}
	// The group receipt commits after the wire ack, so a landed file
	// may not be credited yet: wait for the receipt, then check it.
	waitFor(t, "group receipt for ticks", func() bool {
		_, ok := s.Store().GroupCovers("ticks", 1)
		return ok
	})
	for _, sub := range []string{"wh1", "wh2"} {
		if !s.Store().Delivered(1, sub) {
			t.Fatalf("%s not credited with file 1", sub)
		}
		if n := s.Store().DeliveredCount(sub); n != 0 {
			t.Fatalf("%s holds %d individual receipts, want 0 (group receipt only)", sub, n)
		}
	}
	if _, ok := s.Store().GroupCovers("ticks", 1); !ok {
		t.Fatal("group receipt for ticks does not cover file 1")
	}
	st := s.Status()
	if len(st.Channels) != 1 {
		t.Fatalf("statusz channels = %+v, want one entry", st.Channels)
	}
	cs := st.Channels[0]
	if cs.Name != "ticks" || cs.Members != 2 || cs.Attached != 2 || cs.Frontier != 1 {
		t.Fatalf("channel stats = %+v", cs)
	}
}
