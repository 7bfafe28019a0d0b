package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/load"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// serveSpec is the serve-dashboard request plan.
type serveSpec struct {
	Prefixes   int     // prefixes timeline and stability requests draw from
	Revalidate float64 // share of requests sent with the URL's ETag
	PageSize   int     // ?limit= of event scans
	Closed     int     // closed-loop schedule length
	Window     int     // closed-loop requests per throughput window, a whole number of mix blocks
	OpenShare  float64 // the traced run's open loop lasts this share of the budget
	Rate       float64 // open-loop requests per second
	Walks      int     // event scans whose full page walk is checked
}

// benchServe: two closed-loop clients; in the traced run also an open
// loop at a fixed rate well below what two clients sustain on the
// reference machine.
var benchServe = serveSpec{
	Prefixes: 512, Revalidate: 0.4, PageSize: 100,
	Closed: 2000, Window: 200, OpenShare: 0.8, Rate: 50, Walks: 8,
}

const family = "ipv4"

// castagnoli checksums served bodies, so each response is compared with
// the checked reference body without keeping a copy of it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// serveEnv is a packed and indexed chain behind an API server.
type serveEnv struct {
	h    http.Handler
	arch *archive.Archive
	ix   *query.Index
	dir  string
}

// newServeEnv packs docs into a fresh archive at dir, builds its timeline
// index and puts both behind an api.Server — what `laces serve -archive`
// does. The world only backs live days, which the workload never asks
// for.
func newServeEnv(dir string, docs []*core.Document, w *netsim.World) (*serveEnv, error) {
	wr, err := archive.Create(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	for day, doc := range docs {
		if err := wr.Append(day, doc); err != nil {
			wr.Close()
			return nil, err
		}
	}
	if err := wr.Close(); err != nil {
		return nil, err
	}
	if _, err := query.BuildDir(dir); err != nil {
		return nil, err
	}
	a, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	ix, err := query.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	ix.AttachArchive(a)
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return nil, err
	}
	srv, err := api.NewServer(w, dep, func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }, nil)
	if err != nil {
		return nil, err
	}
	srv.Archive, srv.Query = a, ix
	return &serveEnv{h: srv.Handler(), arch: a, ix: ix, dir: dir}, nil
}

// request is one scheduled request.
type request struct {
	kind string
	path string
	cond bool // sent with If-None-Match: the URL's ETag
}

// schedule draws n requests in internal/load's schedule shape: the
// dashboard mix (load.DefaultMix) with a revalidating share, uniform days
// and prefixes, and the same URL forms as `laces loadgen`. Every block of
// 100 requests holds the mix and the revalidating share exactly, in a
// seeded order, and event scans go through every range length (0 to all
// days but one) once, each at a random start, before a length repeats. So
// the seed moves the order, the days, the prefixes and the scan starts,
// not how much of each kind of work the schedule holds.
func schedule(rng *rand.Rand, n int, days []int, prefixes []string, sp serveSpec) []request {
	mix := load.DefaultMix
	var block []request
	for _, k := range []struct {
		kind   string
		weight int
	}{{load.OpDay, mix.Day}, {load.OpTimeline, mix.Timeline}, {load.OpEvents, mix.Events},
		{load.OpStability, mix.Stability}, {load.OpAggregates, mix.Aggregates}} {
		cond := int(math.Round(sp.Revalidate * float64(k.weight)))
		for j := 0; j < k.weight; j++ {
			block = append(block, request{kind: k.kind, cond: j < cond})
		}
	}
	out := make([]request, 0, n)
	var spanOrder []int
	for len(out) < n {
		for _, i := range rng.Perm(len(block)) {
			if len(out) == n {
				break
			}
			r := block[i]
			switch r.kind {
			case load.OpDay:
				r.path = fmt.Sprintf("/v1/census?day=%d&family=%s", days[rng.Intn(len(days))], family)
			case load.OpTimeline:
				r.path = fmt.Sprintf("/v1/timeline/%s?family=%s", prefixes[rng.Intn(len(prefixes))], family)
			case load.OpEvents:
				if len(spanOrder) == 0 {
					spanOrder = rng.Perm(len(days))
				}
				from := rng.Intn(len(days) - spanOrder[0])
				r.path = eventsPath(days[from], days[from+spanOrder[0]], sp.PageSize)
				spanOrder = spanOrder[1:]
			case load.OpStability:
				r.path = fmt.Sprintf("/v1/stability?family=%s&prefix=%s", family, url.QueryEscape(prefixes[rng.Intn(len(prefixes))]))
			default:
				r.path = "/v1/aggregates?family=" + family
			}
			out = append(out, r)
		}
	}
	return out
}

func eventsPath(from, to, limit int) string {
	return fmt.Sprintf("/v1/events?family=%s&from=%d&to=%d&limit=%d", family, from, to, limit)
}

// recorder is an in-process response writer that keeps the body.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int) {
	if r.status == 0 {
		r.status = c
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) Flush() {}

// client sends requests to the handler in-process, one at a time.
type client struct {
	h   http.Handler
	rec recorder
}

func newClient(h http.Handler) *client { return &client{h: h, rec: recorder{hdr: make(http.Header)}} }

// get serves one request; the body stays valid until the next call.
func (c *client) get(path, inm string) (status int, etag string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	clear(c.rec.hdr)
	c.rec.status = 0
	c.rec.body.Reset()
	c.h.ServeHTTP(&c.rec, req)
	return c.rec.status, c.rec.hdr.Get("ETag"), c.rec.body.Bytes(), nil
}

// checked is the reference a URL's later responses are held to: its ETag
// and the checksum of a body that was checked against the truth record.
type checked struct {
	etag string
	crc  uint32
}

// eventsPage is the /v1/events response envelope.
type eventsPage struct {
	Count         int           `json:"count"`
	Events        []query.Event `json:"events"`
	NextPageToken string        `json:"next_page_token"`
}

// discover fetches every distinct URL of the schedules once, checks each
// body against the generator's truth, and returns the per-URL references.
// It also walks the pages of the first sp.Walks event scans and of the
// whole-chain scan.
func discover(c *client, t *truth, sp serveSpec, scheds ...[]request) (map[string]checked, error) {
	refs := make(map[string]checked)
	var walks []string
	for _, sched := range scheds {
		for _, r := range sched {
			if _, ok := refs[r.path]; ok {
				continue
			}
			st, etag, body, err := c.get(r.path, "")
			if err != nil {
				return nil, err
			}
			if st != http.StatusOK || etag == "" {
				return nil, fmt.Errorf("%s: status %d, ETag %q", r.path, st, etag)
			}
			if err := checkBody(r, body, t, sp); err != nil {
				return nil, fmt.Errorf("%s: %w", r.path, err)
			}
			refs[r.path] = checked{etag, crc32.Checksum(body, castagnoli)}
			if r.kind == load.OpEvents && len(walks) < sp.Walks {
				walks = append(walks, r.path)
			}
		}
	}
	walks = append(walks, eventsPath(t.days[0], t.days[len(t.days)-1], sp.PageSize))
	for _, path := range walks {
		if err := walkEvents(c, path); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return refs, nil
}

// checkBody checks one served body against the truth record.
func checkBody(r request, body []byte, t *truth, sp serveSpec) error {
	switch r.kind {
	case load.OpDay:
		doc, err := core.ParseDocument(bytes.NewReader(body))
		if err != nil {
			return err
		}
		q, _ := url.ParseQuery(r.path[strings.IndexByte(r.path, '?')+1:])
		day, err := strconv.Atoi(q.Get("day"))
		if err != nil {
			return err
		}
		return t.checkDocument(day-t.days[0], doc)
	case load.OpTimeline:
		var tl query.Timeline
		if err := json.Unmarshal(body, &tl); err != nil {
			return err
		}
		return t.checkTimeline(&tl)
	case load.OpStability:
		var st query.Stability
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		i, ok := t.pos[st.Prefix]
		if !ok {
			return fmt.Errorf("stability for unknown prefix %s", st.Prefix)
		}
		present, g := 0, 0
		for d := range t.days {
			if t.present[i][d] {
				present++
			}
			if t.g[i][d] {
				g++
			}
		}
		if st.DaysIndexed != len(t.days) || st.DaysPresent != present || st.GCDDays != g {
			return fmt.Errorf("stability %s: %d/%d days present, %d in 𝒢; truth %d/%d, %d",
				st.Prefix, st.DaysPresent, st.DaysIndexed, st.GCDDays, present, len(t.days), g)
		}
	case load.OpEvents:
		var page eventsPage
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		if len(page.Events) > sp.PageSize || (page.NextPageToken == "") != (len(page.Events) == page.Count) {
			return fmt.Errorf("page of %d events (count %d, next %q) breaks the page size %d",
				len(page.Events), page.Count, page.NextPageToken, sp.PageSize)
		}
	case load.OpAggregates:
		var ag struct {
			Aggregates query.FamilyAggregates `json:"aggregates"`
		}
		if err := json.Unmarshal(body, &ag); err != nil {
			return err
		}
		return t.checkSeries(ag.Aggregates.Series)
	}
	return nil
}

// walkEvents follows an event scan's page tokens to the end: the pages
// must add up to the reported count with no event twice.
func walkEvents(c *client, path string) error {
	seen := make(map[query.Event]bool)
	count := -1
	for path != "" {
		st, _, body, err := c.get(path, "")
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("page status %d", st)
		}
		var page eventsPage
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		if count >= 0 && page.Count != count {
			return fmt.Errorf("count changed from %d to %d mid-walk", count, page.Count)
		}
		count = page.Count
		for _, e := range page.Events {
			if seen[e] {
				return fmt.Errorf("event %+v served twice", e)
			}
			seen[e] = true
		}
		path = ""
		if page.NextPageToken != "" {
			path = "/v1/events?page_token=" + page.NextPageToken
		}
	}
	if len(seen) != count {
		return fmt.Errorf("pages hold %d events, count says %d", len(seen), count)
	}
	return nil
}

// loopStats is what one request loop measured.
type loopStats struct {
	mu          sync.Mutex
	requests    int64
	notModified int64
	failed      int64
	bytes       int64 // response bodies
	problems    []string
	start       time.Time
	wall        time.Duration
	rps         float64   // closed loop: median windowed throughput
	latency     []float64 // open loop: seconds from due to done
	lag         []float64 // open loop: seconds from due to sent
}

// tally records a response and checks it against the URL's reference:
// 200 with the checked body and ETag, or 304 only for a conditional
// request carrying that ETag.
func (s *loopStats) tally(r request, ref checked, inm string, st int, etag string, body []byte) {
	var problem string
	switch st {
	case http.StatusOK:
		if etag != ref.etag || crc32.Checksum(body, castagnoli) != ref.crc {
			problem = fmt.Sprintf("%s: 200 with ETag %s and a body unlike the checked one", r.path, etag)
		}
	case http.StatusNotModified:
		if inm == "" || inm != ref.etag {
			problem = fmt.Sprintf("%s: 304 for If-None-Match %q, ETag %s", r.path, inm, ref.etag)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.bytes += int64(len(body))
	switch {
	case st == http.StatusNotModified:
		s.notModified++
	case st != http.StatusOK:
		s.failed++
		problem = fmt.Sprintf("%s: status %d", r.path, st)
	}
	if problem != "" && len(s.problems) < 5 {
		s.problems = append(s.problems, problem)
	}
}

// send issues one scheduled request under a span named after its kind.
func send(c *client, r request, refs map[string]checked, root *obs.ActiveSpan) (inm string, st int, etag string, body []byte, err error) {
	if r.cond {
		inm = refs[r.path].etag
	}
	sp := root.Child("api." + r.kind)
	st, etag, body, err = c.get(r.path, inm)
	sp.End()
	return inm, st, etag, body, err
}

// closedLoop runs workers clients that each send their next request as
// soon as the previous one returns. It sends the schedule cyclically in
// windows of sp.Window requests, at least minRequests of them and then
// until budget has passed. Its throughput is the median over windows, so
// a short stall of the machine moves it less than a mean would.
func closedLoop(h http.Handler, sched []request, refs map[string]checked, workers, window, minRequests int, budget time.Duration, tr *tracer) *loopStats {
	s := &loopStats{}
	start := time.Now()
	root := tr.root("serve.closed")
	var rates []float64
	for sent := 0; sent < minRequests || time.Since(start) < budget; sent += window {
		rates = append(rates, closedWindow(h, sched, sent, window, refs, workers, s, root))
	}
	root.End()
	s.start, s.wall = start, time.Since(start)
	s.rps = median(rates)
	return s
}

// closedWindow sends n requests of the schedule, from the first'th on
// cyclically, and returns their throughput.
func closedWindow(h http.Handler, sched []request, first, n int, refs map[string]checked, workers int, s *loopStats, root *obs.ActiveSpan) float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(h)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := sched[(first+i)%len(sched)]
				inm, st, etag, body, err := send(c, r, refs, root)
				if err != nil {
					st = 0
				}
				s.tally(r, refs[r.path], inm, st, etag, body)
			}
		}()
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}

// openLoop sends request i at start + i/rate whatever the server is
// doing: workers senders each take the next due request, wait for its
// due time and send it. Latency runs from the due time, so a stall
// charges the wait it imposes on the requests queued behind it; lag is
// how late each request was sent.
func openLoop(h http.Handler, sched []request, refs map[string]checked, workers int, rate float64, tr *tracer) *loopStats {
	s := &loopStats{latency: make([]float64, len(sched)), lag: make([]float64, len(sched))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	root := tr.root("serve.open")
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(h)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				// Timers fire up to a millisecond late; sleep to just
				// before the due time and yield until it comes.
				if wait := time.Until(due) - 2*time.Millisecond; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				r := sched[i]
				inm, st, etag, body, err := send(c, r, refs, root)
				done := time.Now()
				if err != nil {
					st = 0
				}
				s.latency[i] = done.Sub(due).Seconds()
				s.lag[i] = sent.Sub(due).Seconds()
				s.tally(r, refs[r.path], inm, st, etag, body)
			}
		}()
	}
	wg.Wait()
	root.End()
	s.start, s.wall = start, time.Since(start)
	return s
}

// runServe is the serve-dashboard workload: a closed loop of nproc
// clients over a fixed schedule, then an open loop at a fixed rate, both
// against the API handler in-process over the packed and indexed chain.
// Its operation is one request: op_s is the inverse of the closed loop's
// median windowed throughput, CPU time, allocation and output (response
// bodies) are the closed loop's totals per request.
func runServe(rc runConfig, spec chainSpec, sp serveSpec) (*outcome, error) {
	o := newOutcome()
	ch := generate(spec, rc.seed)
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		env, err = newServeEnv(filepath.Join(rc.work, "serve-"+strconv.Itoa(i)), ch.docs, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			env.ix.Close()
		}
	}
	defer env.ix.Close()

	workers := runtime.NumCPU()
	seen := ch.truth.seen()
	rng := rand.New(rand.NewSource(rc.seed))
	prefixes := make([]string, min(sp.Prefixes, len(seen)))
	for i := range prefixes {
		prefixes[i] = seen[rng.Intn(len(seen))]
	}
	closed := schedule(rng, sp.Closed, ch.truth.days, prefixes, sp)
	var open []request
	if rc.trace {
		open = schedule(rng, max(1, int(sp.Rate*sp.OpenShare*rc.budget.Seconds())), ch.truth.days, prefixes, sp)
	}
	refs, err := discover(newClient(env.h), ch.truth, sp, closed, open)
	o.op("discovery", err)
	o.check("served bodies vs truth", err)
	if err != nil {
		return o, nil
	}
	fold := func(s *loopStats) {
		o.attempted += s.requests
		o.failed += s.failed
		for _, p := range s.problems {
			o.check("response", fmt.Errorf("%s", p))
		}
	}

	if !rc.trace {
		var cl *loopStats
		u, _ := measure(func() error {
			cl = closedLoop(env.h, closed, refs, workers, sp.Window, sp.Window, rc.budget, nil)
			return nil
		})
		fold(cl)
		n := float64(cl.requests)
		o.setOp(setups, []float64{1 / cl.rps}, []float64{u.cpu.Seconds() / n},
			[]float64{float64(u.alloc) / mb / n}, float64(cl.bytes)/mb/n)
		return o, nil
	}

	// The traced run: one untraced closed pass, the reference for the
	// tracing overhead, then a traced closed pass and the traced open
	// loop, then the layer calls on their own.
	tr := newTracer()
	untraced := closedLoop(env.h, closed, refs, workers, sp.Window, len(closed), 0, nil)
	fold(untraced)
	decodes0 := env.arch.Decodes()
	hits0, _ := env.arch.CacheStats()
	var cl *loopStats
	u, _ := measure(func() error {
		cl = closedLoop(env.h, closed, refs, workers, sp.Window, len(closed), 0, tr)
		return nil
	})
	fold(cl)
	o.setRuntime(u)
	runtime.GC()
	ol := openLoop(env.h, open, refs, workers, sp.Rate, tr)
	fold(ol)
	hits1, _ := env.arch.CacheStats()
	o.set("serve_p50_ms", "ms", 1e3*segmentMedian(ol.latency))
	o.set("serve_p99_ms", "ms", 1e3*quantile(ol.latency, 0.99))
	o.set("load.lag_p99_ms", "ms", 1e3*quantile(ol.lag, 0.99))
	kinds := []string{load.OpDay, load.OpTimeline, load.OpEvents, load.OpStability, load.OpAggregates}
	for i, k := range kinds {
		kinds[i] = "api." + k
		d := tr.durations(kinds[i])
		o.set(kinds[i]+"_p50_ms", "ms", 1e3*quantile(d, 0.5))
		o.set(kinds[i]+"_p99_ms", "ms", 1e3*quantile(d, 0.99))
	}
	o.set("api.not_modified", "count", float64(cl.notModified+ol.notModified))
	o.set("archive.decodes", "count", float64(env.arch.Decodes()-decodes0))
	o.set("archive.lru_hits", "count", float64(hits1-hits0))
	// Coverage over the closed loop, where the clients are never idle;
	// the open loop waits for due times by design.
	o.set("trace.coverage", "share", tr.coverage(cl.start, cl.start.Add(cl.wall), kinds...))
	o.set("trace.overhead", "share", untraced.rps/cl.rps-1)
	o.check("layer calls", layerCalls(o, tr, env.dir, open))
	return o, tr.write(rc.traceTo)
}

// segmentMedian is the median of the medians of eight consecutive equal
// segments of the open loop: the machine's short busy spells, which make
// cheap requests queue behind slow ones, then move it only when they
// cover half the loop.
func segmentMedian(lat []float64) float64 {
	const k = 8
	var meds []float64
	for i := 0; i < k; i++ {
		if seg := lat[i*len(lat)/k : (i+1)*len(lat)/k]; len(seg) > 0 {
			meds = append(meds, median(seg))
		}
	}
	return median(meds)
}

// layerCalls times the serving path's layer calls on their own from the
// benchmark's code: archive.Document on a freshly opened (cold) archive,
// Document.WriteJSON, and Timeline and Events on a freshly opened index.
func layerCalls(o *outcome, tr *tracer, dir string, sched []request) error {
	var days, prefixes []string
	var ranges [][2]int
	for _, r := range sched {
		q, _ := url.ParseQuery(r.path[strings.IndexByte(r.path, '?')+1:])
		switch r.kind {
		case load.OpDay:
			days = append(days, q.Get("day"))
		case load.OpTimeline:
			prefixes = append(prefixes, strings.TrimPrefix(r.path[:strings.IndexByte(r.path, '?')], "/v1/timeline/"))
		case load.OpEvents:
			from, _ := strconv.Atoi(q.Get("from"))
			to, _ := strconv.Atoi(q.Get("to"))
			ranges = append(ranges, [2]int{from, to})
		}
	}
	root := tr.root("serve.layers")
	defer root.End()
	for _, ds := range days[:min(len(days), 16)] {
		day, _ := strconv.Atoi(ds)
		a, err := archive.Open(dir)
		if err != nil {
			return err
		}
		sp := root.Child("archive.Document")
		doc, err := a.Document(family, day)
		sp.End()
		if err != nil {
			return err
		}
		sp = root.Child("core.WriteJSON")
		err = doc.WriteJSON(io.Discard)
		sp.End()
		if err != nil {
			return err
		}
	}
	ix, err := query.OpenDir(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	for _, p := range prefixes[:min(len(prefixes), 64)] {
		sp := root.Child("query.Timeline")
		_, err := ix.Timeline(family, p)
		sp.End()
		if err != nil {
			return err
		}
	}
	for _, r := range ranges[:min(len(ranges), 16)] {
		sp := root.Child("query.Events")
		_, err := ix.Events(family, nil, r[0], r[1], query.EventOptions{})
		sp.End()
		if err != nil {
			return err
		}
	}
	o.set("archive.decode_ms", "ms", 1e3*median(tr.durations("archive.Document")))
	o.set("core.encode_ms", "ms", 1e3*median(tr.durations("core.WriteJSON")))
	o.set("query.timeline_us", "us", 1e6*median(tr.durations("query.Timeline")))
	o.set("query.events_ms", "ms", 1e3*median(tr.durations("query.Events")))
	return nil
}
