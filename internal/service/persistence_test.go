package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aod"
	"aod/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func reportJSON(t *testing.T, rep *aod.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServiceRecoveryAfterRestart is the crash-recovery e2e: upload →
// discover → stop the service → rebuild a brand-new Service over the same
// data directory → the dataset is still listed and a repeat submission of
// the completed job is served from the persisted report store with zero new
// discovery work.
func TestServiceRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	opts := aod.Options{Threshold: 0.12, IncludeOFDs: true}

	// Generation 1: upload and compute.
	s1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	info, created, err := s1.Registry().Add("employees", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first upload not created")
	}
	v, err := s1.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s1, v.ID, JobDone)
	if done.Report == nil || len(done.Report.OCs) == 0 {
		t.Fatal("first run produced no report")
	}
	firstReport := reportJSON(t, done.Report)
	s1.Close()

	// Generation 2: a fresh process over the same directory.
	s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer s2.Close()

	list := s2.Registry().List()
	if len(list) != 1 {
		t.Fatalf("restarted registry lists %d datasets, want 1", len(list))
	}
	if list[0].ID != info.ID || list[0].Name != "employees" || list[0].Fingerprint != info.Fingerprint {
		t.Errorf("restarted record %+v does not match original %+v", list[0], info)
	}
	if st := s2.Stats(); !st.Persistent || st.Datasets != 1 || st.DatasetsResident != 0 {
		t.Errorf("restarted stats = %+v, want persistent, 1 dataset, 0 resident (lazy)", st)
	}

	// The repeat submission must be a hit from disk: no validation run.
	v2, err := s2.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitState(t, s2, v2.ID, JobDone)
	if !done2.CacheHit {
		t.Error("post-restart identical job was not a cache hit")
	}
	if got := reportJSON(t, done2.Report); got != firstReport {
		t.Errorf("post-restart report differs from the persisted one:\nwas  %s\nnow  %s", firstReport, got)
	}
	st := s2.Stats()
	if st.ValidationRuns != 0 {
		t.Errorf("restart recomputed: %d validation runs, want 0", st.ValidationRuns)
	}
	if st.CacheDiskHits != 1 || st.CacheHits != 1 {
		t.Errorf("stats = diskHits %d / hits %d, want 1 / 1", st.CacheDiskHits, st.CacheHits)
	}
	if st.DiscoveryTime != 0 {
		t.Errorf("restart spent %v in discovery for a persisted report", st.DiscoveryTime)
	}
}

// TestPersistentRegistryLazyLoadAndEviction: with a store, MaxDatasets
// bounds the resident set, not the registry — uploads keep succeeding and
// cold payloads reload from disk on use.
func TestPersistentRegistryLazyLoadAndEviction(t *testing.T) {
	s := New(Config{Workers: 1, MaxDatasets: 1, Store: openStore(t, t.TempDir())})
	defer s.Close()
	r := s.Registry()

	a, _, err := r.Add("a", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Add("b", slowDataset(t, 30, 2))
	if err != nil {
		t.Fatalf("persistent registry refused a second dataset: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("registry size = %d, want 2", r.Len())
	}
	if res := r.Resident(); res != 1 {
		t.Fatalf("resident = %d, want 1 (bound)", res)
	}
	// a was evicted for b; using a again reloads it from disk and evicts b.
	dsA, infoA, err := r.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dsA.Fingerprint() != infoA.Fingerprint || infoA.Fingerprint != a.Fingerprint {
		t.Error("lazily reloaded dataset does not match its record")
	}
	if res := r.Resident(); res != 1 {
		t.Errorf("resident = %d after reload, want 1", res)
	}
	// And b still works too — round and round without refusals.
	if _, _, err := r.Get(b.ID); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentColdGetsLoadOnce: after a restart, many goroutines hitting
// one cold dataset must trigger exactly one disk load (the per-entry loading
// flight) and all adopt the same in-memory payload.
func TestConcurrentColdGetsLoadOnce(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	info, _, err := s1.Registry().Add("cold", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	const goroutines = 16
	got := make([]*aod.Dataset, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ds, _, err := s2.Registry().Get(info.ID)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = ds
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d loaded a distinct payload copy", g)
		}
	}
	if res := s2.Registry().Resident(); res != 1 {
		t.Errorf("resident = %d after concurrent cold gets, want 1", res)
	}
}

// TestCorruptReportRecomputedAndQuarantined: a truncated report file must
// not be served; the job transparently recomputes and the corrupt file is
// quarantined.
func TestCorruptReportRecomputedAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	opts := aod.Options{Threshold: 0.12}

	s1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	info, _, err := s1.Registry().Add("employees", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, v.ID, JobDone)
	s1.Close()

	// Truncate every persisted report — simulating a torn disk.
	reports, err := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("no persisted report files (err=%v)", err)
	}
	for _, p := range reports {
		if err := os.WriteFile(p, []byte(`{"key": "tru`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()
	v2, err := s2.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s2, v2.ID, JobDone)
	if done.CacheHit {
		t.Error("corrupt report was served as a cache hit")
	}
	if len(done.Report.OCs) == 0 {
		t.Error("recomputed report is empty")
	}
	stats := s2.Stats()
	if stats.ValidationRuns != 1 {
		t.Errorf("validation runs = %d, want 1 (recompute)", stats.ValidationRuns)
	}
	if stats.Quarantined == 0 {
		t.Error("corrupt report file was not quarantined")
	}
	// The recompute re-persisted a good report: a third generation hits disk.
	s2.Close()
	s3 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer s3.Close()
	v3, err := s3.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if done3 := waitState(t, s3, v3.ID, JobDone); !done3.CacheHit {
		t.Error("re-persisted report not served from disk after second restart")
	}
}

// TestCorruptDatasetStillServesPersistedReport: the result cache is keyed
// by fingerprint metadata, so a previously computed report is served even
// when the dataset payload itself has rotted on disk — the payload is only
// needed for new validation work.
func TestCorruptDatasetStillServesPersistedReport(t *testing.T) {
	dir := t.TempDir()
	opts := aod.Options{Threshold: 0.12}
	s1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	info, _, err := s1.Registry().Add("rotting", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, v.ID, JobDone)
	s1.Close()

	payload := filepath.Join(dir, "datasets", info.Fingerprint+".col")
	if err := os.WriteFile(payload, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	v2, err := s2.Submit(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s2, v2.ID, JobDone)
	if !done.CacheHit || len(done.Report.OCs) == 0 {
		t.Errorf("persisted report not served despite corrupt payload: %+v", done)
	}
	// A *different* configuration genuinely needs the payload and fails.
	v3, err := s2.Submit(info.ID, aod.Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, v3.ID, JobFailed)
}

// TestCorruptDatasetFailsJobNotServer: garbage in a dataset payload file
// fails the one job that needs it — with the record dropped and the file
// quarantined — while the service keeps serving everything else.
func TestCorruptDatasetFailsJobNotServer(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	info, _, err := s1.Registry().Add("doomed", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	payload := filepath.Join(dir, "datasets", info.Fingerprint+".col")
	if err := os.WriteFile(payload, []byte("g\x00rbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	if n := len(s2.Registry().List()); n != 1 {
		t.Fatalf("dataset not listed before first use: %d records", n)
	}
	v, err := s2.Submit(info.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err) // schema validation uses metadata only; submission succeeds
	}
	failed := waitState(t, s2, v.ID, JobFailed)
	if !strings.Contains(failed.Error, "unavailable") {
		t.Errorf("job error %q does not name the unavailable dataset", failed.Error)
	}
	if s2.Stats().Quarantined == 0 {
		t.Error("corrupt payload was not quarantined")
	}
	// The poisoned record is gone; the server itself is healthy.
	if _, err := s2.Registry().Info(info.ID); !errors.Is(err, ErrNoDataset) {
		t.Errorf("corrupt dataset still resolvable: %v", err)
	}
	fresh, _, err := s2.Registry().Add("fresh", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Submit(fresh.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, v2.ID, JobDone)
}

// TestUnserializableUploadIs422 keeps its name from when persistent mode
// refused this upload with a 422: a quoted "\r\r\n" folds to a value
// containing "\r\n", which a CSV payload could not round-trip. Columnar
// payloads carry every string as its bytes, so persistent mode now accepts
// it with a 201 like in-memory mode, and the value reloads unchanged across
// a restart.
func TestUnserializableUploadIs422(t *testing.T) {
	body := "a\n\"x\r\r\ny\"\n\"z\"\n"
	upload := func(s *Service) DatasetInfo {
		t.Helper()
		srv := httptest.NewServer(NewHandler(s, HandlerConfig{}))
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/datasets", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload status = %d, want 201", resp.StatusCode)
		}
		var info DatasetInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	dir := t.TempDir()
	persistent := New(Config{Workers: 1, Store: openStore(t, dir)})
	info := upload(persistent)
	persistent.Close()

	restarted := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer restarted.Close()
	ds, got, err := restarted.Registry().Get(info.ID)
	if err != nil {
		t.Fatalf("dataset lost across restart: %v", err)
	}
	if got.Fingerprint != info.Fingerprint || ds.Fingerprint() != info.Fingerprint {
		t.Errorf("reloaded fingerprint %s, want %s", ds.Fingerprint(), info.Fingerprint)
	}
	if v, err := ds.Value(0, "a"); err != nil || v != "x\r\ny" {
		t.Errorf("reloaded value = %q (err %v), want %q", v, err, "x\r\ny")
	}

	inMemory := New(Config{Workers: 1})
	defer inMemory.Close()
	if mem := upload(inMemory); mem.Fingerprint != info.Fingerprint {
		t.Errorf("in-memory fingerprint %s differs from persistent %s", mem.Fingerprint, info.Fingerprint)
	}
}

// TestLegacyDataDirUpgrade is the upgrade e2e over a data directory the
// server wrote while it stored CSV payloads: testdata/datadir-csv-layout/data
// holds the four bodies of uploads/, each uploaded under its file name and
// given one job ({"threshold":0.12,"includeOFDs":true}) before a graceful
// shutdown. tricky.csv's ratio column holds integral floats, which its CSV
// payload renders as ints, so only the manifest's types reload it right.
// The directory opens without loss: every dataset is served with the
// fingerprint of its upload, each persisted report comes back
// byte-identical, a new job computes what aod.Discover computes on the
// upload, every payload is migrated to the columnar encoding, and a corrupt
// legacy payload is quarantined.
func TestLegacyDataDirUpgrade(t *testing.T) {
	fixture := filepath.Join("testdata", "datadir-csv-layout")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(fixture, "data"))); err != nil {
		t.Fatal(err)
	}
	uploads := map[string]*aod.Dataset{}
	for _, name := range []string{"table1", "tricky", "flight", "doomed"} {
		ds, err := aod.ReadCSVFile(filepath.Join(fixture, "uploads", name+".csv"), aod.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		uploads[name] = ds
	}
	// The persisted reports, by dataset fingerprint (one job each).
	persisted := map[string]string{}
	envelopes, err := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if err != nil || len(envelopes) != len(uploads) {
		t.Fatalf("fixture holds %d reports (err=%v), want %d", len(envelopes), err, len(uploads))
	}
	for _, p := range envelopes {
		var env struct {
			Key    string      `json:"key"`
			Report *aod.Report `json:"report"`
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		fp, _, _ := strings.Cut(env.Key, "|")
		persisted[fp] = reportJSON(t, env.Report)
	}
	doomed := uploads["doomed"].Fingerprint()
	doomedCSV := filepath.Join(dir, "datasets", doomed+".csv")
	if err := os.WriteFile(doomedCSV, []byte("d,e\n5,a\nsix,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer s.Close()
	if q := s.Stats().Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want 1 (the corrupt legacy payload)", q)
	}
	if _, err := os.Stat(doomedCSV); !os.IsNotExist(err) {
		t.Error("corrupt legacy payload still under its live name")
	}
	byName := map[string]DatasetInfo{}
	for _, info := range s.Registry().List() {
		byName[info.Name] = info
	}
	if len(byName) != 3 {
		t.Errorf("upgraded registry lists %d datasets, want 3", len(byName))
	}
	if _, ok := byName["doomed"]; ok {
		t.Error("corrupt legacy dataset still listed")
	}
	opts := aod.Options{Threshold: 0.12, IncludeOFDs: true}
	for _, name := range []string{"table1", "tricky", "flight"} {
		ds := uploads[name]
		info, ok := byName[name]
		if !ok || info.Fingerprint != ds.Fingerprint() {
			t.Errorf("%s: listed as %+v, want fingerprint %s", name, info, ds.Fingerprint())
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "datasets", info.Fingerprint+".csv")); !os.IsNotExist(err) {
			t.Errorf("%s: legacy payload not removed", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "datasets", info.Fingerprint+".col")); err != nil {
			t.Errorf("%s: payload not migrated: %v", name, err)
		}
		v, err := s.Submit(info.ID, opts)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, v.ID, JobDone)
		if !done.CacheHit || reportJSON(t, done.Report) != persisted[info.Fingerprint] {
			t.Errorf("%s: persisted report not served byte-identical (cacheHit=%v)", name, done.CacheHit)
		}
		// A new configuration needs the migrated payload itself.
		fresh := aod.Options{Threshold: 0.3, Bidirectional: true}
		v, err = s.Submit(info.ID, fresh)
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, s, v.ID, JobDone).Report
		want, err := aod.Discover(ds, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*aod.Report{got, want} {
			r.Stats.ValidationTime, r.Stats.PartitionTime, r.Stats.TotalTime = 0, 0, 0
		}
		if reportJSON(t, got) != reportJSON(t, want) {
			t.Errorf("%s: report over the migrated payload differs from aod.Discover:\n got %s\nwant %s", name, reportJSON(t, got), reportJSON(t, want))
		}
	}
}

// TestInMemoryModeUnchanged pins the PR-1 contract: without a Store the
// registry bound still refuses uploads and stats advertise no persistence.
func TestInMemoryModeUnchanged(t *testing.T) {
	s := New(Config{Workers: 1, MaxDatasets: 1})
	defer s.Close()
	if _, _, err := s.Registry().Add("a", smallDataset(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Registry().Add("b", slowDataset(t, 20, 2)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("err = %v, want ErrRegistryFull without a store", err)
	}
	st := s.Stats()
	if st.Persistent || st.Quarantined != 0 || st.CacheDiskHits != 0 {
		t.Errorf("in-memory stats advertise persistence: %+v", st)
	}
	if st.DatasetsResident != st.Datasets {
		t.Errorf("resident %d != datasets %d in memory mode", st.DatasetsResident, st.Datasets)
	}
}

// TestPersistentServiceConcurrency hammers a persistent service from many
// goroutines — uploads (identical and distinct), submissions, stats — then
// restarts and checks nothing was lost. Run under -race in CI.
func TestPersistentServiceConcurrency(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 4, QueueDepth: 256, MaxDatasets: 2, Store: openStore(t, dir)})

	const goroutines = 8
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ds *aod.Dataset
			if g%2 == 0 {
				ds = smallDataset(t) // identical content: dedup path
			} else {
				ds = slowDataset(t, 20+g, 2) // distinct content: eviction churn
			}
			info, _, err := s.Registry().Add(fmt.Sprintf("d%d", g), ds)
			if err != nil {
				t.Error(err)
				return
			}
			ids[g] = info.ID
			v, err := s.Submit(info.ID, aod.Options{Threshold: 0.12})
			if err != nil {
				t.Error(err)
				return
			}
			waitState(t, s, v.ID, JobDone)
			s.Stats()
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.Close()

	// Nothing uploaded concurrently may be lost across the restart.
	s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer s2.Close()
	for g, id := range ids {
		if _, err := s2.Registry().Info(id); err != nil {
			t.Errorf("dataset %d (%s) lost across restart: %v", g, id, err)
		}
	}
	// Every re-submission is answered from the persisted report store.
	for _, id := range ids {
		v, err := s2.Submit(id, aod.Options{Threshold: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		if done := waitState(t, s2, v.ID, JobDone); !done.CacheHit {
			t.Errorf("dataset %s: post-restart job missed the report store", id)
		}
	}
	if st := s2.Stats(); st.ValidationRuns != 0 {
		t.Errorf("post-restart validation runs = %d, want 0", st.ValidationRuns)
	}
}

// TestConcurrentBidirectionalJobsShareDataset pins the shared-dataset
// immutability contract: concurrent discovery jobs race over one registered
// dataset's lazily built descending column views (previously a plain-pointer
// data race in Column.Reversed — this test failed under -race before the
// view cache became an atomic CAS).
func TestConcurrentBidirectionalJobsShareDataset(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	info, _, err := s.Registry().Add("shared", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct thresholds → distinct cache keys → genuinely concurrent runs
	// over the same *aod.Dataset.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(info.ID, aod.Options{
				Threshold:     0.05 * float64(i+1),
				Bidirectional: true,
				IncludeOFDs:   true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			waitState(t, s, v.ID, JobDone)
		}(i)
	}
	wg.Wait()
}
