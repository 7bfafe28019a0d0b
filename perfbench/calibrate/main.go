// Command calibrate measures how the simulator's daily IPv4 census changes
// from day to day, the figures the benchmark's synthetic chain is built
// from (see ../README.md). It runs the census pipeline for consecutive
// days on a test-scale world with the benchmark's deployment (TANGLED,
// Ark GCD VPs) and reports, for the prefixes that were ever in 𝒢 and for
// those only ever in ℳ: how many there are, on what share of days they
// are published, how often a present prefix is gone the next day, how
// often a 𝒢-class prefix is published in ℳ instead, and how often a 𝒢
// prefix's site count changes overnight.
//
// Run it from the perfbench directory:
//
//	go run ./calibrate -days 60 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// history is one prefix's published record over the measured days.
type history struct {
	present, g []bool
	sites      []int
}

func main() {
	days := flag.Int("days", 60, "consecutive census days to run, from day 0")
	seed := flag.Uint64("seed", 1, "world seed")
	scale := flag.String("scale", "test", "world scale: test (netsim.TestConfig) or default (netsim.DefaultConfig)")
	flag.Parse()

	var cfg netsim.Config
	switch *scale {
	case "test":
		cfg = netsim.TestConfig()
	case "default":
		cfg = netsim.DefaultConfig()
	default:
		fatal(fmt.Errorf("-scale must be test or default, not %q", *scale))
	}
	cfg.Seed = *seed
	w, err := netsim.New(cfg)
	if err != nil {
		fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		fatal(err)
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment:  dep,
		GCDVPs:      func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
		Parallelism: runtime.NumCPU(),
	})
	if err != nil {
		fatal(err)
	}

	hist := map[string]*history{}
	var entries, gs, ms, neither []int
	for d := 0; d < *days; d++ {
		c, err := pipe.RunDaily(d, false, core.DayOptions{})
		if err != nil {
			fatal(err)
		}
		doc := c.Document()
		n := 0
		for _, e := range doc.Entries {
			if !e.InG() && !e.InM() {
				n++
				continue
			}
			h := hist[e.Prefix]
			if h == nil {
				h = &history{present: make([]bool, *days), g: make([]bool, *days), sites: make([]int, *days)}
				hist[e.Prefix] = h
			}
			h.present[d] = true
			h.g[d] = e.InG()
			h.sites[d] = e.GCDSites
		}
		entries = append(entries, len(doc.Entries)-n)
		gs = append(gs, doc.GCount)
		ms = append(ms, doc.MCount)
		neither = append(neither, n)
	}

	fmt.Printf("world: %s scale, seed %d, %d IPv4 targets; %d days\n", *scale, *seed, cfg.V4Targets, *days)
	fmt.Printf("published per day: entries mean %.1f (min %d, max %d); 𝒢 %.1f, ℳ %.1f; neither 𝒢 nor ℳ %.1f\n",
		mean(entries), minOf(entries), maxOf(entries), mean(gs), mean(ms), mean(neither))

	var gClass, mClass []*history
	for _, h := range hist {
		ever := false
		for _, b := range h.g {
			ever = ever || b
		}
		if ever {
			gClass = append(gClass, h)
		} else {
			mClass = append(mClass, h)
		}
	}
	var added, removed int
	for _, h := range hist {
		for d := 1; d < *days; d++ {
			if h.present[d] && !h.present[d-1] {
				added++
			}
			if h.present[d-1] && !h.present[d] {
				removed++
			}
		}
	}
	fmt.Printf("churn per day: %.1f added, %.1f removed\n", ratio(added, *days-1), ratio(removed, *days-1))
	fmt.Printf("union: %d prefixes; ever in 𝒢: %d; only ever in ℳ: %d\n", len(hist), len(gClass), len(mClass))
	describe("𝒢 class", gClass, *days)
	describe("ℳ class", mClass, *days)
	// ℳ splits into prefixes published every day, prefixes that rotate in
	// and out on a share of days, and one-off prefixes seen on under a
	// tenth of the days.
	var every, rotating, transient []*history
	for _, h := range mClass {
		switch k := count(h.present); {
		case k == *days:
			every = append(every, h)
		case k*10 >= *days:
			rotating = append(rotating, h)
		default:
			transient = append(transient, h)
		}
	}
	describe("ℳ every day", every, *days)
	describe("ℳ rotating", rotating, *days)
	describe("ℳ transient", transient, *days)

	// How a 𝒢-class prefix is published on the days it is present.
	var present, inM, gPairs, siteChanges, absDelta int
	for _, h := range gClass {
		for d := range h.present {
			if !h.present[d] {
				continue
			}
			present++
			if !h.g[d] {
				inM++
			}
			if d > 0 && h.g[d] && h.g[d-1] {
				gPairs++
				if h.sites[d] != h.sites[d-1] {
					siteChanges++
					absDelta += max(h.sites[d]-h.sites[d-1], h.sites[d-1]-h.sites[d])
				}
			}
		}
	}
	fmt.Printf("𝒢 class: published in ℳ instead of 𝒢 on %.4f of present days; site count changed on %.4f of consecutive 𝒢 day pairs, by %.2f sites on average\n",
		ratio(inM, present), ratio(siteChanges, gPairs), ratio(absDelta, siteChanges))
	var sites []int
	for _, h := range gClass {
		for d := range h.g {
			if h.g[d] {
				sites = append(sites, h.sites[d])
				break
			}
		}
	}
	sort.Ints(sites)
	if len(sites) > 0 {
		var deciles []int
		for q := 0; q <= 10; q++ {
			deciles = append(deciles, sites[min(q*len(sites)/10, len(sites)-1)])
		}
		fmt.Printf("𝒢 class site counts on first 𝒢 day, deciles 0..10: %v, mean %.1f\n", deciles, mean(sites))
	}
}

// describe prints a class's presence: the share of days its prefixes are
// published, how many are published on every day or on one day only, and
// the day-over-day retention (present tomorrow given present today) next
// to the daily presence rate, which it equals when days are independent.
func describe(name string, hs []*history, days int) {
	var presentDays, stay, pairs, every, once int
	for _, h := range hs {
		k := count(h.present)
		for d, p := range h.present {
			if !p {
				continue
			}
			if d+1 < days {
				pairs++
				if h.present[d+1] {
					stay++
				}
			}
		}
		presentDays += k
		if k == days {
			every++
		}
		if k == 1 {
			once++
		}
	}
	fmt.Printf("%s: %d prefixes, published on %.4f of days; on every day %d (%.3f), on one day only %d (%.3f); present next day %.4f\n",
		name, len(hs), ratio(presentDays, len(hs)*days), every, ratio(every, len(hs)), once, ratio(once, len(hs)), ratio(stay, pairs))
	// The presence histogram, in tenths of the days.
	var hist [11]int
	for _, h := range hs {
		hist[count(h.present)*10/days]++
	}
	fmt.Printf("%s: prefixes by share of days published (0-10%%, 10-20%%, ..., 100%%): %v\n", name, hist)
}

// count is the number of days a series is true.
func count(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return ratio(s, len(xs))
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
