package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	planA = []byte(`{"epoch":1,"view":{"epoch":1,"members":[0,1,2]},"primaries":[0],"placement":[[0,1]]}`)
	planB = []byte(`{"epoch":2,"view":{"epoch":2,"members":[1,2]},"primaries":[1],"placement":[[1]]}`)
)

func openJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// wantPlan asserts the journal's latest record, in memory and as reopened
// from dir.
func wantPlan(t *testing.T, j *Journal, dir string, epoch int, plan []byte) {
	t.Helper()
	for _, jj := range []*Journal{j, openJournal(t, dir)} {
		if e, got, ok := jj.LatestPlan(); !ok || e != epoch || !bytes.Equal(got, plan) {
			t.Fatalf("LatestPlan = (%d, %s, %v), want (%d, %s, true)", e, got, ok, epoch, plan)
		}
	}
}

func TestJournalPlanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	if _, _, ok := j.LatestPlan(); ok {
		t.Fatal("empty journal claims a plan")
	}
	if err := j.RecordPlan(1, planA); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, j, dir, 1, planA)
	if err := j.RecordPlan(3, planB); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, j, dir, 3, planB)
	if err := j.RecordPlan(4, nil); err == nil {
		t.Fatal("empty plan recorded")
	}
	wantPlan(t, j, dir, 3, planB)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal.snap" {
		t.Fatalf("journal directory holds %v, want only journal.snap", entries)
	}
}

// Every record replaces the last, so the journal stays one record long
// however many epochs it has seen: there is nothing left to compact.
func TestJournalRecordRecoverCompact(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	plans := []string{
		`{"placement":[[0],[1,2]]}`,
		`{"placement":[[0,1],[1]]}`,
		`{"placement":[[0,2],[1,2]]}`,
		`{"placement":[[2],[0,1,2]]}`,
	}
	for e, pl := range plans {
		if err := j.RecordPlan(e, []byte(pl)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.RecordPlan(4, nil); err == nil {
		t.Fatal("empty plan recorded; the journal could not be reopened")
	}
	wantPlan(t, j, dir, 3, []byte(plans[3]))
	data, err := os.ReadFile(filepath.Join(dir, "journal.snap"))
	if err != nil {
		t.Fatal(err)
	}
	want := len(snapMagic) + frameHeaderLen + len(`{"epoch":3,"plan":}`) + len(plans[3])
	if len(data) != want {
		t.Errorf("journal record %d bytes after %d plans, want %d (one framed record)", len(data), len(plans), want)
	}
}

// A lower epoch never replaces a higher one; an equal epoch does.
func TestJournalEpochOrder(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	if err := j.RecordPlan(5, planA); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordPlan(4, planB); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, j, dir, 5, planA)
	if err := openJournal(t, dir).RecordPlan(2, planB); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, j, dir, 5, planA)
	if err := j.RecordPlan(5, planB); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, j, dir, 5, planB)
}

// TestJournalRefusesCorruptRecord: a damaged record is an error naming
// the file, never an empty journal a coordinator would re-seed over.
func TestJournalRefusesCorruptRecord(t *testing.T) {
	src := t.TempDir()
	j := openJournal(t, src)
	for e, pl := range [][]byte{planA, planB} {
		if err := j.RecordPlan(e, pl); err != nil {
			t.Fatal(err)
		}
	}
	good, err := os.ReadFile(filepath.Join(src, "journal.snap"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}
	for name, data := range map[string][]byte{
		"magic":     flip(0),
		"length":    flip(len(snapMagic)),
		"checksum":  flip(len(snapMagic) + 4),
		"payload":   flip(len(good) - 3),
		"truncated": good[:len(good)-1],
		"header":    good[:len(snapMagic)+2],
		"empty":     {},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err == nil {
			_, _, ok := j.LatestPlan()
			t.Fatalf("%s: corrupt record opened (plan present: %v)", name, ok)
		}
		if !strings.Contains(err.Error(), "journal.snap") {
			t.Errorf("%s: error does not name the record: %v", name, err)
		}
	}
	// A frame that checks out around a payload that is not an entry.
	dir := t.TempDir()
	if _, err := writeSnapshotFile(filepath.Join(dir, "journal.snap"), []byte(`{"epoch":`)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("undecodable entry opened")
	}
}

// A crash after the temp file is written but before the rename leaves the
// previous record in force; the leftover temp file is never read, and the
// next record overwrites it.
func TestJournalCrashBeforeRenameKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	if err := j.RecordPlan(1, planA); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "journal.snap.tmp")
	if _, err := writeSnapshotFile(tmp, []byte(`{"epoch":2,"plan":`+string(planB)+`}`)); err != nil {
		t.Fatal(err)
	}
	r := openJournal(t, dir)
	wantPlan(t, r, dir, 1, planA)
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r = openJournal(t, dir)
	wantPlan(t, r, dir, 1, planA)
	if err := r.RecordPlan(2, planB); err != nil {
		t.Fatal(err)
	}
	wantPlan(t, r, dir, 2, planB)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survives a committed record: %v", err)
	}
}

// TestJournalRejectsLegacyReplicatorEntries: a directory written before
// the journal became one record holds journal.log, and it is refused with
// an error naming the file; a record in the retired per-object replicator
// format says it holds no plan. Neither opens as an empty journal.
func TestJournalRejectsLegacyReplicatorEntries(t *testing.T) {
	legacy := []byte(`{"epoch":1,"replicators":[[0,1],[1]]}`)
	logDir := t.TempDir()
	w, err := openWAL(filepath.Join(logDir, "journal.log"), SyncNever, 0, nil, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(legacy); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	if _, err := writeSnapshotFile(filepath.Join(snapDir, "journal.snap"), legacy); err != nil {
		t.Fatal(err)
	}
	emptyLogDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(emptyLogDir, "journal.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]string{
		logDir:      "journal.log",
		emptyLogDir: "journal.log",
		snapDir:     "holds no placement plan",
	} {
		if _, err := OpenJournal(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one naming %q", dir, err, want)
		}
	}
}
