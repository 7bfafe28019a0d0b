package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/query"
)

// The tests run every workload at small scale and show that each
// correctness check fails on a corrupted output.

var (
	smallChain = func() chainSpec {
		s := benchChain
		s.Days, s.Union = 12, 300
		return s
	}()
	smallServe = serveSpec{
		Prefixes: 64, Revalidate: 0.4, PageSize: 10,
		Closed: 200, Window: 100, OpenShare: 0.5, Rate: 400, Walks: 2,
	}
)

func testRun(t *testing.T, trace bool) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{seed: 7, budget: 300 * time.Millisecond, trace: trace, work: dir, traceTo: filepath.Join(dir, "trace.json")}
}

// expectResult checks an outcome has no correctness problem and carries
// exactly the named metrics, each a finite number.
func expectResult(t *testing.T, o *outcome, err error, names ...string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range o.problems {
		t.Errorf("check failed: %s", p)
	}
	var got []string
	for name, m := range o.metrics {
		got = append(got, name)
		if m.Value != m.Value || m.Unit == "" {
			t.Errorf("metric %s = %v %q", name, m.Value, m.Unit)
		}
	}
	slices.Sort(got)
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Errorf("metrics %v, want %v", got, names)
	}
	if o.attempted == 0 {
		t.Error("no operation attempted")
	}
}

func endToEndNames() []string {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	return names
}

// TestManifestMatches checks that the metrics the result line carries are
// exactly those BENCHMARK.json lists, in the same units.
func TestManifestMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		ours []metricName
		man  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, m.EndToEnd}, {"per_layer", perLayer, m.PerLayer}} {
		var ours, man []string
		for _, x := range c.ours {
			ours = append(ours, x.name+" "+x.unit)
		}
		for _, x := range c.man {
			man = append(man, x.Name+" "+x.Unit)
		}
		if !slices.Equal(ours, man) {
			t.Errorf("%s: perfbench reports %v, BENCHMARK.json lists %v", c.kind, ours, man)
		}
	}
}

// TestResultLine checks that a workload's result line carries every
// metric of the manifest: per-layer metrics of layers it does not call at
// 0, and no end-to-end metric missing.
func TestResultLine(t *testing.T) {
	o, err := runIngest(testRun(t, true), smallChain)
	if err != nil {
		t.Fatal(err)
	}
	line, err := o.line(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) != len(perLayer) {
		t.Errorf("traced line has %d metrics, want %d", len(line), len(perLayer))
	}
	if v := line["manycast.probes"].Value; v != 0 {
		t.Errorf("archive-ingest reports manycast.probes %v, want 0", v)
	}
	if v := line["archive.append_s"].Value; v <= 0 {
		t.Errorf("archive-ingest reports archive.append_s %v", v)
	}
	delete(o.metrics, "op_s")
	if _, err := o.line(false); err == nil {
		t.Error("an end-to-end line without op_s passed")
	}
}

// expectChromeTrace checks a traced run wrote a trace_event file holding
// the named spans.
func expectChromeTrace(t *testing.T, path string, spans ...string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			have[e.Name] = true
		}
	}
	for _, s := range spans {
		if !have[s] {
			t.Errorf("trace has no %q span", s)
		}
	}
}

func TestCensusWorkload(t *testing.T) {
	o, err := runCensus(testRun(t, false), netsim.TestConfig())
	expectResult(t, o, err, endToEndNames()...)
	if o.failed != 0 {
		t.Errorf("%d of %d operations failed", o.failed, o.attempted)
	}
}

func TestCensusTraced(t *testing.T) {
	rc := testRun(t, true)
	o, err := runCensus(rc, netsim.TestConfig())
	expectResult(t, o, err, "hitlist.for_day_s", "netsim.derive_universe_s", "netsim.target_derivations",
		"netsim.derivations_per_target", "manycast.stage_s", "manycast.probes", "manycast.probes_per_s",
		"gcdmeas.stage_s", "gcdmeas.probes", "core.rest_s", "runtime.cpu_per_wall", "runtime.gc_cycles",
		"runtime.gc_pause_ms", "trace.coverage", "trace.overhead")
	expectChromeTrace(t, rc.traceTo, "hitlist.ForDay", "manycast.MultiProtocol", "gcdmeas.Run", "netsim.IterTargets")
}

// smallCensus runs one test-scale census day for the corruption tests.
func smallCensus(t *testing.T) (*censusEnv, *core.DailyCensus) {
	t.Helper()
	env, err := newCensusEnv(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.pipe.RunDaily(censusDay, false, core.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCensus(env.w, len(env.vps), c); err != nil {
		t.Fatalf("clean census fails its check: %v", err)
	}
	return env, c
}

func TestCensusChecksCatchCorruption(t *testing.T) {
	env, c := smallCensus(t)
	g, m := c.G(), c.M()
	if len(g) == 0 || len(m) == 0 {
		t.Fatal("test census needs 𝒢 and ℳ entries")
	}
	var unicast int
	for id := 0; id < env.w.NumTargets(false); id++ {
		if env.w.TargetAt(false, id).KindAt(censusDay) == netsim.Unicast {
			unicast = id
			break
		}
	}
	corrupt := map[string]func(c *core.DailyCensus){
		"unicast target in 𝒢": func(c *core.DailyCensus) {
			c.Entries[unicast] = &core.Entry{TargetID: unicast, GCDMeasured: true, GCDAnycast: true,
				GCDSites: 2, GCDCities: []string{"a", "b"}}
		},
		"anycast probes off by one": func(c *core.DailyCensus) { c.ProbesAnycastStage++ },
		"GCD probes off by one":     func(c *core.DailyCensus) { c.ProbesGCDStage-- },
		"hitlist size":              func(c *core.DailyCensus) { c.HitlistSize-- },
		"ℳ entry with one receiver": func(c *core.DailyCensus) { c.Entries[m[0]].MaxReceivers = 1 },
		"𝒢 entry with one site":     func(c *core.DailyCensus) { c.Entries[g[0]].GCDSites = 1 },
		"𝒢 entry missing a city": func(c *core.DailyCensus) {
			e := c.Entries[g[0]]
			e.GCDCities = e.GCDCities[:len(e.GCDCities)-1]
		},
	}
	for name, fn := range corrupt {
		t.Run(name, func(t *testing.T) {
			_, c := smallCensus(t)
			fn(c)
			if err := checkCensus(env.w, len(env.vps), c); err == nil {
				t.Error("check passed a corrupted census")
			}
		})
	}
}

func TestReplayCheckCatchesMismatch(t *testing.T) {
	env, c := smallCensus(t)
	fresh, err := newCensusEnv(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh.vps = env.vps
	r, err := replayCensus(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareReplay(r, c); err != nil {
		t.Fatalf("replay differs from RunDaily: %v", err)
	}
	r.g = r.g[1:]
	if compareReplay(r, c) == nil {
		t.Error("check passed a replay with one 𝒢 target dropped")
	}
}

func TestIngestWorkload(t *testing.T) {
	o, err := runIngest(testRun(t, false), smallChain)
	expectResult(t, o, err, endToEndNames()...)
	perRound := int64(smallChain.Days + 2) // the round, its appends, the torn-tail resume
	if o.attempted%perRound != 0 || o.failed > o.attempted/perRound {
		t.Errorf("%d of %d operations failed; only the torn-tail resume may, once a round", o.failed, o.attempted)
	}
}

func TestIngestTraced(t *testing.T) {
	rc := testRun(t, true)
	o, err := runIngest(rc, smallChain)
	expectResult(t, o, err, "core.delta_s", "core.encode_s", "archive.append_s", "archive.stored_mb",
		"query.build_s", "query.index_mb", "runtime.cpu_per_wall", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"trace.coverage", "trace.overhead")
	expectChromeTrace(t, rc.traceTo, "archive.Append", "query.Build", "core.DiffDocuments", "core.StreamDocument")
}

// smallArchive ingests the small chain for the corruption tests.
func smallArchive(t *testing.T, mutate func(docs []*core.Document)) (*ingestFiles, *chain) {
	t.Helper()
	ch := generate(smallChain, 3)
	docs := make([]*core.Document, len(ch.docs))
	for i, d := range ch.docs {
		docs[i] = d.DeepCopy()
	}
	if mutate != nil {
		mutate(docs)
	}
	f, err := ingest(filepath.Join(t.TempDir(), "a"), docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.close)
	return f, ch
}

func TestArchiveChecksCatchCorruption(t *testing.T) {
	f, ch := smallArchive(t, nil)
	if err := verifyArchive(f, ch.truth); err != nil {
		t.Fatalf("clean archive fails its check: %v", err)
	}
	corrupt := map[string]func(docs []*core.Document){
		"dropped entry": func(docs []*core.Document) {
			d := docs[5]
			d.Entries = slices.Delete(d.Entries, 3, 4)
		},
		"𝒢 flag flipped": func(docs []*core.Document) {
			e := &docs[7].Entries[2]
			e.GCDAnycast = !e.GCDAnycast
		},
		"site count changed": func(docs []*core.Document) {
			for i := range docs[9].Entries {
				if e := &docs[9].Entries[i]; e.GCDAnycast {
					e.GCDSites++
					e.GCDCities = append(slices.Clone(e.GCDCities), "x")
					return
				}
			}
		},
	}
	for name, fn := range corrupt {
		t.Run(name, func(t *testing.T) {
			f, ch := smallArchive(t, fn)
			if verifyArchive(f, ch.truth) == nil {
				t.Error("check passed a corrupted archive")
			}
		})
	}
}

func TestTimelineAndSeriesChecksCatchCorruption(t *testing.T) {
	f, ch := smallArchive(t, nil)
	p := ch.truth.seen()[0]
	tl, err := f.ix.Timeline(family, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := *tl
	bad.Present = slices.Clone(tl.Present)
	bad.Present[4] = !bad.Present[4]
	if ch.truth.checkTimeline(&bad) == nil {
		t.Error("check passed a timeline with one presence flipped")
	}
	pts, err := f.ix.Series(family)
	if err != nil {
		t.Fatal(err)
	}
	pts[6].Removed++
	if ch.truth.checkSeries(pts) == nil {
		t.Error("check passed a series with one churn count off")
	}
}

// TestChainKeepsCalibratedMakeUp checks the benchmark chain against the
// simulator figures it is built from (README.md, calibrate/): the 𝒢
// share of a day and the share of a day's entries added overnight.
func TestChainKeepsCalibratedMakeUp(t *testing.T) {
	ch := generate(benchChain, 1)
	var entries, g, added int
	for pos := range ch.truth.days {
		e, gg, _ := ch.truth.counts(pos)
		a, _ := ch.truth.churn(pos)
		entries, g, added = entries+e, g+gg, added+a
	}
	days := len(ch.truth.days)
	gShare := float64(g) / float64(entries)
	churn := float64(added) / float64(days-1) / (float64(entries) / float64(days))
	if gShare < 0.30 || gShare > 0.37 || churn < 0.13 || churn > 0.16 {
		t.Errorf("chain: 𝒢 share %.3f (simulator 0.30–0.37), added a day %.3f of a day's entries (simulator 0.13–0.16)", gShare, churn)
	}
}

func TestTornTailResume(t *testing.T) {
	torn := generate(tornChain, tornSeed)
	// The operation's pass criterion holds for a resume after a clean
	// tail; a wrong document would fail it.
	err := tornTailResume(filepath.Join(t.TempDir(), "clean"), torn, "")
	if err != nil {
		t.Fatalf("resume after a clean tail: %v", err)
	}
	// After a torn tail the next archive.Open fails today.
	err = tornTailResume(filepath.Join(t.TempDir(), "torn"), torn, tornRecord)
	t.Logf("resume after a torn tail: %v", err)
}

func TestServeWorkload(t *testing.T) {
	o, err := runServe(testRun(t, false), smallChain, smallServe)
	expectResult(t, o, err, endToEndNames()...)
	if o.failed != 0 {
		t.Errorf("%d of %d requests failed", o.failed, o.attempted)
	}
}

func TestServeTraced(t *testing.T) {
	rc := testRun(t, true)
	o, err := runServe(rc, smallChain, smallServe)
	var names []string
	for _, k := range []string{"day", "timeline", "events", "stability", "aggregates"} {
		names = append(names, "api."+k+"_p50_ms", "api."+k+"_p99_ms")
	}
	expectResult(t, o, err, append(names, "serve_p50_ms", "serve_p99_ms", "api.not_modified", "archive.decode_ms", "archive.decodes",
		"archive.lru_hits", "core.encode_ms", "query.timeline_us", "query.events_ms", "load.lag_p99_ms",
		"runtime.cpu_per_wall", "runtime.gc_cycles", "runtime.gc_pause_ms", "trace.coverage", "trace.overhead")...)
	expectChromeTrace(t, rc.traceTo, "api.day", "api.timeline", "archive.Document", "query.Events")
}

func TestServeChecksCatchCorruption(t *testing.T) {
	ch := generate(smallChain, 5)
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	env, err := newServeEnv(t.TempDir(), ch.docs, w)
	if err != nil {
		t.Fatal(err)
	}
	defer env.ix.Close()
	c := newClient(env.h)
	day := request{kind: "day", path: "/v1/census?day=4&family=ipv4"}
	st, etag, body, err := c.get(day.path, "")
	if err != nil || st != http.StatusOK {
		t.Fatalf("status %d, %v", st, err)
	}
	body = bytes.Clone(body)
	if err := checkBody(day, body, ch.truth, smallServe); err != nil {
		t.Fatalf("clean body fails its check: %v", err)
	}

	t.Run("served day with one flag flipped", func(t *testing.T) {
		flipped := bytes.Replace(body, []byte(`"gcd_anycast": true`), []byte(`"gcd_anycast": false`), 1)
		if checkBody(day, flipped, ch.truth, smallServe) == nil {
			t.Error("check passed a day body with one 𝒢 flag flipped")
		}
	})
	t.Run("served timeline with one day flipped", func(t *testing.T) {
		tr := request{kind: "timeline", path: "/v1/timeline/" + ch.truth.seen()[0] + "?family=ipv4"}
		_, _, tb, _ := c.get(tr.path, "")
		var tl query.Timeline
		if err := json.Unmarshal(tb, &tl); err != nil {
			t.Fatal(err)
		}
		tl.GCDAnycast[3] = !tl.GCDAnycast[3]
		bad, _ := json.Marshal(tl)
		if checkBody(tr, bad, ch.truth, smallServe) == nil {
			t.Error("check passed a timeline body with one 𝒢 day flipped")
		}
	})
	t.Run("responses against their references", func(t *testing.T) {
		ref := checked{etag: etag, crc: crc32.Checksum(body, castagnoli)}
		var s loopStats
		s.tally(day, ref, "", http.StatusOK, etag, body)
		if len(s.problems) != 0 {
			t.Fatalf("clean response flagged: %v", s.problems)
		}
		s.tally(day, ref, "", http.StatusOK, etag, append(bytes.Clone(body), ' '))
		s.tally(day, ref, "", http.StatusNotModified, "", nil)
		s.tally(day, ref, `"other"`, http.StatusNotModified, "", nil)
		if len(s.problems) != 3 {
			t.Errorf("flagged %d of 3 bad responses: %v", len(s.problems), s.problems)
		}
		s.tally(day, ref, "", http.StatusInternalServerError, "", nil)
		if s.failed != 1 {
			t.Error("a 500 was not counted as failed")
		}
	})
	t.Run("event pages with a duplicate", func(t *testing.T) {
		ev := query.Event{Kind: query.EventOnset, Family: family, Prefix: "1.2.3.0/24", Day: 2, PrevDay: -1}
		pages := map[string]eventsPage{
			"/v1/events?x":               {Count: 2, Events: []query.Event{ev}, NextPageToken: "next"},
			"/v1/events?page_token=next": {Count: 2, Events: []query.Event{ev}},
		}
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(pages[r.URL.RequestURI()])
		})
		if err := walkEvents(newClient(h), "/v1/events?x"); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("walk over a duplicated event: %v", err)
		}
	})
	t.Run("clean event walk", func(t *testing.T) {
		if err := walkEvents(c, eventsPath(0, smallChain.Days-1, 5)); err != nil {
			t.Error(err)
		}
	})
}

func TestScheduleHoldsTheMixExactly(t *testing.T) {
	ch := generate(smallChain, 1)
	for _, seed := range []int64{1, 2} {
		s := schedule(rand.New(rand.NewSource(seed)), 300, ch.truth.days, ch.truth.seen(), smallServe)
		counts := make(map[string]int)
		cond := 0
		for _, r := range s {
			counts[r.kind]++
			if r.cond {
				cond++
			}
		}
		want := map[string]int{"day": 150, "timeline": 75, "events": 30, "stability": 30, "aggregates": 15}
		if fmt.Sprint(counts) != fmt.Sprint(want) || cond != 120 {
			t.Errorf("seed %d: kinds %v, %d conditional", seed, counts, cond)
		}
	}
}
