package store_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"drp/internal/cluster"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/store"
	"drp/internal/workload"
)

// TestDurableMigrationBytesPinned runs the migrations of a durable cluster
// on the durable_rw bench instance (6 sites, 120 objects, U 0.05, C 0.3):
// an SRA Deploy, the control plane's plan that drains site 5, site 5's
// Leave and its Join. It pins, per site, the digest of the files the run
// leaves in the site's directory (WAL segments and snapshots) and of the
// state the site encodes, under SyncAlways and every:16, with no automatic
// snapshots, one after every record and one every 64. The sync policy
// decides when bytes reach the disk, never which bytes: both policies
// leave the same files. With no automatic snapshots it also pins what the
// Deploy costs the log: appends, fsyncs and write calls, at GOMAXPROCS 1.
//
// A commit that drops one of the records it holds, writes them twice, or
// takes a due snapshot before writing them moves the digests.
func TestDurableMigrationBytesPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := workload.Generate(workload.NewSpec(6, 120, 0.05, 0.3), 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme := sra.Run(p, sra.Options{}).Scheme
	const leaver = 5

	// What the Deploy costs the log, per policy, with no automatic
	// snapshots: appends, fsyncs and write calls across the six sites.
	// Each of its 17 batch commands is one commit: one write call, and
	// one fsync under SyncAlways. With one commit per record the Deploy
	// made 740 write calls, and 740 and 45 fsyncs.
	type deployCost struct{ appends, fsyncs, writes int64 }
	wantCost := map[string]deployCost{
		"always":   {740, 17, 17},
		"every:16": {740, 14, 17},
	}
	wantState := []string{
		"6ffe623b4583c6722855d446f2ec6d0a6aa9b8943063c1ea8647f1f38ed31582",
		"1d6341476bc6780b1e1eaf0203e31897f06a87e654fc3cf4988175247329aeab",
		"018db31c16f50c926835e696c91a32ca0f45904854cf3aa9efc0435f10b5afce",
		"044efe061376cee6b416db230afeef3606c0e56a2a6fb478c9d4d9ac2499c018",
		"e9b9ead6b4cbea13b629d7872659d9fd04fe97663fe8c29f844f7e010d60fb0a",
		"4793f132720fbadd3a7bca18eed77740b633acc286d4cf6376eb6b40fa32eb37",
	}
	wantFiles := map[int][]string{
		0: {
			"2d0a01cf4cc1f40a80f4a70c4f4e895df89fde7ee4e276b5b38254494de1d025",
			"749467fc96ef2c93676df6a2ad5d6e3283bd40f1db22548680b843a3cc3de4d1",
			"5ccd5c600186a532fe767137c83bc5afb83de03a8952200ca1aecdf8e572a73f",
			"0aa790b6a5eb652e107762c2224bb1575cfb38644ac5e026d7b135d192bf4caf",
			"254a6f1839dca77c10112902b38231592cdc562b2d816f70c7f37acf9faad09f",
			"eac2996f9cc226dcdd5af5993950774b0c2e0447c4be3267729ef0c4d2de8d8c",
		},
		1: {
			"9785635942c3378ccdf84fcc55d6d483ade045043040a4e56ffe5ca3cd89816a",
			"3a2e6d857ad0fe17c2256839e9dec2b0490031e1647e44331f3c64c586bf95a1",
			"6ea2eff9ed1de61f6439fa9cfd0ebf9776975bcd78a561b559f15495122c4cfc",
			"c54f160fdc88f7907b65d9cc9422ccfa1d8c002fb11a9b890fe23df7ddaeec14",
			"7ad1eb0508530718c67e139555ff5a689ccd6af3ad230e2b37064f2cf708f0f4",
			"5aa47d472c10f15f41108140a7cf8b03e3c066d636b3e8023d83c667c58f55f7",
		},
		64: {
			"61e9baab388c3a3b017c60796086dda2f3e7f2cbb82231315eef8851d2b134c1",
			"5cd323adf60de5e7eaab825340d1ffd3e9ea3bb1e17d1c10c7777822a18583e7",
			"0597fc6d46a7c397de5dc0d4eecf1f26af8ed638ef99ae6d640d723426778f78",
			"a8539293ed6d5f1a83062792d23d3bac33391bc111d7d4568facf70e256a26b5",
			"0eb4c4328a487cdb804cd5f0f34403cc8fab5da791b7108ce4a38b364a9403c8",
			"7bc75d1efb10f86709bc5c26fc15738a420df25c31b66991e939e4015f52a6f7",
		},
	}

	for _, policy := range []string{"always", "every:16"} {
		sync, every, err := store.ParseSyncPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range []int{0, 1, 64} {
			name := fmt.Sprintf("%s, snapshot every %d", policy, snap)
			reg := metrics.NewRegistry()
			root := t.TempDir()
			c, err := netnode.StartDurable(p, root, store.Options{Sync: sync, SyncEvery: every, SnapshotEvery: snap, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			appends := reg.Counter("drp_store_appends_total", "", nil)
			fsyncs := reg.Counter("drp_store_fsyncs_total", "", nil)
			a0, f0 := appends.Value(), fsyncs.Value()
			if _, err := c.Deploy(scheme); err != nil {
				t.Fatal(err)
			}
			if snap == 0 {
				got := deployCost{appends: appends.Value() - a0, fsyncs: fsyncs.Value() - f0}
				for _, m := range c.Members() {
					got.writes += int64(store.LogWrites(c.Node(m).Store()))
				}
				if got != wantCost[policy] {
					t.Errorf("%s: the deploy made %+v, want %+v", name, got, wantCost[policy])
				}
			}

			cp, err := cluster.NewControlPlane(p, c.Members(), nil)
			if err != nil {
				t.Fatal(err)
			}
			view, err := cp.Plan().View.Leave(leaver)
			if err != nil {
				t.Fatal(err)
			}
			drain, err := cp.React(view)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ApplyPlan(drain); err != nil {
				t.Fatal(err)
			}
			if err := c.Leave(leaver); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Join(leaver); err != nil {
				t.Fatal(err)
			}
			states := make([]string, p.Sites())
			for i := range states {
				states[i] = fmt.Sprintf("%x", sha256.Sum256(c.Node(i).Store().EncodeState()))
			}
			c.Close()

			files := make([]string, p.Sites())
			for i := range files {
				files[i] = dirDigest(t, filepath.Join(root, fmt.Sprintf("site-%03d", i)))
			}
			if !slices.Equal(states, wantState) {
				t.Errorf("%s: site state digests\n  %q\nwant\n  %q", name, states, wantState)
			}
			if !slices.Equal(files, wantFiles[snap]) {
				t.Errorf("%s: site directory digests\n  %q\nwant\n  %q", name, files, wantFiles[snap])
			}
		}
	}
}

// dirDigest hashes the name and bytes of every file in dir, by name.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
