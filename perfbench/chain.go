package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/query"
)

// chainSpec is the make-up of a synthetic chain of daily IPv4 census
// documents: which prefixes are published each day, whether GCD confirms
// them (𝒢) or only the anycast-based stage flags them (ℳ), and how many
// sites 𝒢 prefixes have. Its shares and rates are those the simulator's
// own census shows over 60 consecutive days (calibrate/ measures them;
// README.md lists the figures).
//
// Every published prefix is in one of four classes, dealt by share of
// the chain's union:
//
//	𝒢          anycast deployments GCD confirms: published on every day,
//	           except a few born or retired during the chain; their site
//	           count moves by a site or two from day to day
//	ℳ steady   published in ℳ on every day
//	ℳ rotating published in ℳ on each day independently, with chance
//	           RotatePresent (operators whose traffic engineering hides
//	           the prefix from the anycast-based stage on some days)
//	ℳ one-off  published in ℳ on one day, or on two (Twice), chosen at
//	           random (a routing disturbance on a unicast target)
type chainSpec struct {
	Days     int     // census days 0..Days-1
	Union    int     // prefixes published on at least one day
	GShare   float64 // share of the union in the 𝒢 class
	Steady   float64 // share of the union in the steady ℳ class
	Rotating float64 // share of the union in the rotating ℳ class; the rest are one-off

	GWindow       float64 // share of the 𝒢 class born or retired on a random day of the chain
	GMiss         float64 // daily chance a present 𝒢-class prefix is published in ℳ instead
	SiteChange    float64 // daily chance a 𝒢 prefix's site count changes
	RotatePresent float64 // daily chance a rotating ℳ prefix is published
	Twice         float64 // share of one-off prefixes published on two days instead of one
}

// benchChain is the chain both archive workloads use: 60 days of about
// 1,200 published prefixes each, drawn from a union of 5,500. The shares
// and rates are the means over three simulator seeds (README.md).
var benchChain = chainSpec{
	Days: 60, Union: 5500,
	GShare: 0.078, Steady: 0.077, Rotating: 0.080,
	GWindow: 0.05, GMiss: 0.0002, SiteChange: 0.335, RotatePresent: 0.65, Twice: 0.085,
}

// tornChain is the small fixed chain of the torn-tail resume operation.
// Its seed never changes: that operation fails on every run today, and
// its inputs must not depend on the run's seed.
var (
	tornChain = func() chainSpec {
		s := benchChain
		s.Days, s.Union = 8, 400
		return s
	}()
	tornSeed int64 = 1
)

// chain is a generated document chain plus the generator's own record of
// what each day holds, kept apart from the documents.
type chain struct {
	docs  []*core.Document
	truth *truth
}

// truth is the generator's record: per prefix and day, presence, 𝒢
// membership (a present prefix not in 𝒢 is in ℳ) and the site count
// published for 𝒢 days (0 otherwise).
type truth struct {
	days     []int
	prefixes []string // canonical numeric order
	pos      map[string]int
	present  [][]bool // [prefix][day position]
	g        [][]bool
	sites    [][]int
}

// prefixClass is one of the chain's four classes of prefix.
type prefixClass uint8

const (
	classG prefixClass = iota
	classSteady
	classRotating
	classOneOff
)

// prefixModel is one prefix's static attributes.
type prefixModel struct {
	prefix    string
	class     prefixClass
	origin    uint32
	protocols []string
	receivers int
	vps       int
	cities    []string // enough for the largest site count it reaches
}

// siteDeciles are the deciles (0 to 10) of the site counts GCD publishes
// for the simulator's 𝒢 prefixes; a 𝒢 prefix's starting site count is
// drawn from them by quantile.
var siteDeciles = [11]float64{2, 4, 9, 15, 29, 35, 36, 36, 65, 66, 68}

const maxSites = 80

// generate builds the chain for a seed. Every draw comes from one seeded
// stream in a fixed order, so a seed always gives the same chain.
func generate(spec chainSpec, seed int64) *chain {
	rng := rand.New(rand.NewSource(seed))
	names := cityNames()

	// The union: distinct routable /24s in canonical numeric order.
	seen := make(map[uint32]bool, spec.Union)
	nets := make([]uint32, 0, spec.Union)
	for len(nets) < spec.Union {
		n := uint32(1<<16 + rng.Intn(222<<16)) // 1.0.0.0/24 .. 223.255.255.0/24
		if !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	slices.Sort(nets)

	t := &truth{pos: make(map[string]int, spec.Union)}
	for d := 0; d < spec.Days; d++ {
		t.days = append(t.days, d)
	}
	u := float64(spec.Union)
	models := make([]prefixModel, spec.Union)
	sites := make([]int, spec.Union)
	var members [4][]int // union positions of each class
	for i, k := range rng.Perm(spec.Union) {
		c := classOneOff
		switch k := float64(k); {
		case k < spec.GShare*u:
			c = classG
		case k < (spec.GShare+spec.Steady)*u:
			c = classSteady
		case k < (spec.GShare+spec.Steady+spec.Rotating)*u:
			c = classRotating
		}
		members[c] = append(members[c], i)
		n := nets[i]
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(n >> 16), byte(n >> 8), byte(n), 0}), 24).String()
		models[i] = prefixModel{
			prefix:    p,
			class:     c,
			origin:    uint32(1000 + rng.Intn(60000)),
			protocols: []string{"ICMP"},
			receivers: 2 + rng.Intn(31),
			vps:       80 + rng.Intn(80),
		}
	}
	// Within each class, site counts, cities and protocol sets are dealt
	// by rank from fixed ladders, so every seed's classes hold the same
	// spread of them; the seed decides which prefix gets which rank, and
	// the daily draws.
	for c, idx := range members {
		n := float64(len(idx))
		siteRank, tcpRank := rng.Perm(len(idx)), rng.Perm(len(idx))
		for j, i := range idx {
			m := &models[i]
			if float64(tcpRank[j]) < 0.4*n {
				m.protocols = []string{"ICMP", "TCP"}
			}
			if prefixClass(c) != classG {
				continue
			}
			r := siteRank[j]
			sites[i] = siteQuantile((float64(r) + 0.5) / n)
			for k := 0; k < maxSites; k++ {
				m.cities = append(m.cities, names[(r+k)%len(names)])
			}
		}
	}
	for i := range models {
		p := models[i].prefix
		t.prefixes = append(t.prefixes, p)
		t.pos[p] = i
		t.present = append(t.present, make([]bool, spec.Days))
		t.g = append(t.g, make([]bool, spec.Days))
		t.sites = append(t.sites, make([]int, spec.Days))
	}

	// Presence per class. A windowed 𝒢 prefix is born on, or retired
	// after, a random day; a one-off prefix is published on one or two
	// random days.
	for i := range models {
		row := t.present[i]
		switch models[i].class {
		case classG:
			from, to := 0, spec.Days
			if rng.Float64() < spec.GWindow {
				if cut := rng.Intn(spec.Days); rng.Intn(2) == 0 {
					from = cut
				} else {
					to = cut + 1
				}
			}
			for d := from; d < to; d++ {
				row[d] = true
			}
		case classSteady:
			for d := range row {
				row[d] = true
			}
		case classRotating:
			for d := range row {
				row[d] = rng.Float64() < spec.RotatePresent
			}
		case classOneOff:
			row[rng.Intn(spec.Days)] = true
			if rng.Float64() < spec.Twice {
				row[rng.Intn(spec.Days)] = true
			}
		}
	}

	ch := &chain{truth: t}
	for d := 0; d < spec.Days; d++ {
		doc := &core.Document{
			Date:        netsim.DayTime(d).Format(time.DateOnly),
			Family:      "ipv4",
			HitlistSize: 1_000_000 - 11*d,
			Workers:     32,
		}
		for i := range models {
			m := &models[i]
			if m.class == classG && d > 0 && rng.Float64() < spec.SiteChange {
				sites[i] = min(max(sites[i]+siteStep(rng), 2), maxSites)
			}
			if !t.present[i][d] {
				continue
			}
			inG := m.class == classG && rng.Float64() >= spec.GMiss
			e := core.DocumentEntry{
				Prefix:       m.prefix,
				OriginASN:    m.origin,
				ACProtocols:  m.protocols,
				MaxReceivers: m.receivers,
				GCDMeasured:  true,
				GCDAnycast:   inG,
				GCDVPs:       m.vps,
			}
			if inG {
				e.GCDSites = sites[i]
				e.GCDCities = m.cities[:sites[i]]
				t.g[i][d] = true
				t.sites[i][d] = sites[i]
				doc.GCount++
			} else {
				doc.MCount++
			}
			doc.Entries = append(doc.Entries, e)
		}
		doc.ProbesAnycastStage = int64(doc.Workers) * int64(doc.HitlistSize)
		doc.ProbesGCDStage = int64(len(doc.Entries)) * 120
		ch.docs = append(ch.docs, doc)
	}
	return ch
}

// siteQuantile is the q-quantile of siteDeciles, interpolated.
func siteQuantile(q float64) int {
	pos := q * 10
	lo := min(int(pos), 9)
	return int(math.Round(siteDeciles[lo] + (pos-float64(lo))*(siteDeciles[lo+1]-siteDeciles[lo])))
}

// siteStep is one overnight site-count change: ±1, ±2 or ±3 sites with
// chances 0.7, 0.2 and 0.1, a mean of 1.4 sites as the simulator shows.
func siteStep(rng *rand.Rand) int {
	step := 1
	switch r := rng.Float64(); {
	case r >= 0.9:
		step = 3
	case r >= 0.7:
		step = 2
	}
	if rng.Intn(2) == 0 {
		return -step
	}
	return step
}

// cityNames lists the embedded city database's names, the vocabulary of
// published site geolocations.
func cityNames() []string {
	all := cities.Default().All()
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Name
	}
	return out
}

// counts returns the truth's census size and 𝒢/ℳ split on a day.
func (t *truth) counts(pos int) (entries, g, m int) {
	for i := range t.prefixes {
		if !t.present[i][pos] {
			continue
		}
		entries++
		if t.g[i][pos] {
			g++
		} else {
			m++
		}
	}
	return entries, g, m
}

// churn returns the prefixes added to and removed from the census
// against the previous day (0, 0 on the first day).
func (t *truth) churn(pos int) (added, removed int) {
	if pos == 0 {
		return 0, 0
	}
	for i := range t.prefixes {
		now, before := t.present[i][pos], t.present[i][pos-1]
		if now && !before {
			added++
		}
		if before && !now {
			removed++
		}
	}
	return added, removed
}

// seen lists the prefixes present on at least one day: exactly the
// prefixes the timeline index holds a row for.
func (t *truth) seen() []string {
	var out []string
	for i, p := range t.prefixes {
		if slices.Contains(t.present[i], true) {
			out = append(out, p)
		}
	}
	return out
}

// checkDocument compares one decoded day with the truth record.
func (t *truth) checkDocument(pos int, doc *core.Document) error {
	entries, g, m := t.counts(pos)
	if len(doc.Entries) != entries || doc.GCount != g || doc.MCount != m {
		return fmt.Errorf("day %d: %d entries (𝒢 %d, ℳ %d), truth %d (𝒢 %d, ℳ %d)",
			t.days[pos], len(doc.Entries), doc.GCount, doc.MCount, entries, g, m)
	}
	for k := range doc.Entries {
		e := &doc.Entries[k]
		i, ok := t.pos[e.Prefix]
		if !ok || !t.present[i][pos] {
			return fmt.Errorf("day %d: %s is not in the census that day", t.days[pos], e.Prefix)
		}
		if e.InG() != t.g[i][pos] || e.InM() == t.g[i][pos] || e.GCDSites != t.sites[i][pos] {
			return fmt.Errorf("day %d: %s has 𝒢=%v ℳ=%v sites=%d, truth 𝒢=%v sites=%d",
				t.days[pos], e.Prefix, e.InG(), e.InM(), e.GCDSites, t.g[i][pos], t.sites[i][pos])
		}
	}
	return nil
}

// checkTimeline compares a prefix timeline's presence, 𝒢 and site series
// with the truth record.
func (t *truth) checkTimeline(tl *query.Timeline) error {
	i, ok := t.pos[tl.Prefix]
	if !ok {
		return fmt.Errorf("timeline for unknown prefix %s", tl.Prefix)
	}
	if !slices.Equal(tl.Days, t.days) || len(tl.Present) != len(t.days) ||
		len(tl.GCDAnycast) != len(t.days) || len(tl.Sites) != len(t.days) {
		return fmt.Errorf("timeline %s covers days %v, truth %d days", tl.Prefix, tl.Days, len(t.days))
	}
	for d := range t.days {
		if tl.Present[d] != t.present[i][d] || tl.GCDAnycast[d] != t.g[i][d] || tl.Sites[d] != t.sites[i][d] {
			return fmt.Errorf("timeline %s day %d: present=%v 𝒢=%v sites=%d, truth present=%v 𝒢=%v sites=%d",
				tl.Prefix, t.days[d], tl.Present[d], tl.GCDAnycast[d], tl.Sites[d],
				t.present[i][d], t.g[i][d], t.sites[i][d])
		}
	}
	return nil
}

// checkSeries compares the aggregate series with the truth record.
func (t *truth) checkSeries(pts []query.SeriesPoint) error {
	if len(pts) != len(t.days) {
		return fmt.Errorf("series has %d points, truth %d days", len(pts), len(t.days))
	}
	for d, p := range pts {
		entries, g, m := t.counts(d)
		added, removed := t.churn(d)
		if p.Day != t.days[d] || p.Entries != entries || p.GCDConfirmed != g || p.AnycastOnly != m ||
			p.Added != added || p.Removed != removed {
			return fmt.Errorf("series day %d: %+v, truth entries %d 𝒢 %d ℳ %d added %d removed %d",
				t.days[d], p, entries, g, m, added, removed)
		}
	}
	return nil
}
