package experiments

import "testing"

// TestE18Shape asserts the fan-out claim the channel broker was built
// for: staging bytes read per file stay ~constant (within 2x) as the
// member count grows 100x, and every member still receives every file
// exactly once — zero duplicates, zero misses. The individual-delivery
// baseline at the small width pins the contrast: without the channel,
// staging reads already multiply by the subscriber count.
func TestE18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fan-out scaling trial")
	}
	cfg := E18TrialConfig{Files: 3, FileSize: 2048, Channel: true}

	narrow := cfg
	narrow.Subscribers = 10
	small, err := E18FanOutTrial(narrow)
	if err != nil {
		t.Fatal(err)
	}

	wide := cfg
	wide.Subscribers = 1000
	big, err := E18FanOutTrial(wide)
	if err != nil {
		t.Fatal(err)
	}

	perFileSmall := small.StagingBytes / int64(cfg.Files)
	perFileBig := big.StagingBytes / int64(cfg.Files)
	t.Logf("staging bytes/file: %d members %d, %d members %d", narrow.Subscribers, perFileSmall, wide.Subscribers, perFileBig)
	if perFileBig > 2*perFileSmall {
		t.Fatalf("staging read per file grew from %d to %d bytes over a 100x wider group — fan-out is re-reading per member", perFileSmall, perFileBig)
	}
	for name, r := range map[string]*E18TrialResult{"narrow": small, "wide": big} {
		if r.Duplicates != 0 || r.Missed != 0 {
			t.Fatalf("%s trial: %d duplicate and %d missed (member, file) deliveries, want exactly-once", name, r.Duplicates, r.Missed)
		}
	}

	// The pre-channel baseline at the small width, with the same-file
	// locality heuristic off: every individual job reads the staged
	// file itself, so reads are exactly members × file size per file.
	// (With it on, how many claims batch behind one read depends on
	// timing, and the multiple wandered around its bound.)
	indiv := cfg
	indiv.Subscribers = 10
	indiv.Channel = false
	indiv.Ungrouped = true
	base, err := E18FanOutTrial(indiv)
	if err != nil {
		t.Fatal(err)
	}
	if base.Duplicates != 0 || base.Missed != 0 {
		t.Fatalf("baseline trial: %d duplicate and %d missed deliveries", base.Duplicates, base.Missed)
	}
	basePerFile := base.StagingBytes / int64(cfg.Files)
	t.Logf("individual baseline: %d bytes/file for %d members (channel: %d)", basePerFile, indiv.Subscribers, perFileSmall)
	if want := int64(indiv.Subscribers * cfg.FileSize); basePerFile != want {
		t.Fatalf("individual delivery read %d bytes/file for %d members, want exactly %d — one staged read per member", basePerFile, indiv.Subscribers, want)
	}
	if basePerFile < 3*perFileSmall {
		t.Fatalf("channel read %d bytes/file at %d members, individual delivery %d — want the channel at a third or less", perFileSmall, indiv.Subscribers, basePerFile)
	}
}
