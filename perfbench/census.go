package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// censusDay is the day the workload censuses: day 0, IPv4.
const censusDay = 0

// censusEnv is one freshly built census set-up: a cold world, the 32-site
// TANGLED deployment, the day's Ark VPs and a pipeline using every core.
type censusEnv struct {
	w    *netsim.World
	dep  *netsim.Deployment
	vps  []netsim.VP
	pipe *core.Pipeline
}

func newCensusEnv(cfg netsim.Config) (*censusEnv, error) {
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return nil, err
	}
	vps, err := platform.Ark(w, censusDay, false)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment:  dep,
		GCDVPs:      func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
		Parallelism: runtime.NumCPU(),
	})
	if err != nil {
		return nil, err
	}
	return &censusEnv{w: w, dep: dep, vps: vps, pipe: pipe}, nil
}

// runCensus is the census-paper-day workload: cold day-0 IPv4 censuses,
// each on a freshly built world, until the time budget is spent (one day
// at paper scale). Its operation is one census day; its output is the
// day's published JSON document. A traced run instead replays the census stage by stage
// under spans and compares the replay with an untraced RunDaily.
func runCensus(rc runConfig, cfg netsim.Config) (*outcome, error) {
	cfg.Seed += uint64(rc.seed)
	o := newOutcome()
	var setups []float64
	setup := func() (*censusEnv, error) {
		t0 := time.Now()
		env, err := newCensusEnv(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		return env, err
	}
	var env *censusEnv
	for i := 0; i < setupRepeats; i++ {
		var err error
		if env, err = setup(); err != nil {
			return nil, err
		}
	}
	if rc.trace {
		return o, traceCensus(rc, o, env, setup)
	}

	var walls, cpus, allocs []float64
	var docMB float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < rc.budget; round++ {
		if round > 0 {
			var err error
			if env, err = setup(); err != nil {
				return nil, err
			}
		}
		var c *core.DailyCensus
		u, err := measure(func() error {
			var err error
			c, err = env.pipe.RunDaily(censusDay, false, core.DayOptions{})
			return err
		})
		o.op("census day", err)
		if err != nil {
			continue
		}
		o.check("census", checkCensus(env.w, len(env.vps), c))
		var n countingWriter
		o.check("publish", c.Document().WriteJSON(&n))
		docMB = float64(n) / mb
		walls = append(walls, u.wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
		allocs = append(allocs, float64(u.alloc)/mb)
		env = nil // a later round starts from a cold world
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no census day completed")
	}
	o.setOp(setups, walls, cpus, allocs, docMB)
	return o, nil
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (n *countingWriter) Write(p []byte) (int, error) {
	*n += countingWriter(len(p))
	return len(p), nil
}

// checkCensus checks a census day against the simulator's ground truth
// and the probing arithmetic, none of which the pipeline computes:
//   - every 𝒢 target is anycast (or backed by an anycast announcement)
//     on that day;
//   - the hitlist size and the anycast-stage probe count follow from the
//     targets the day's hitlist sources list;
//   - the GCD stage sent one probe per Ark VP per measured entry;
//   - every ℳ entry has at least two receivers, every 𝒢 entry at least
//     two sites and one city per site.
func checkCensus(w *netsim.World, vps int, c *core.DailyCensus) error {
	snap := hitlist.QuarterOf(c.DayIndex)
	var listed, perProto int64
	w.IterTargets(c.V6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			if tg.HitlistFromDay > snap {
				continue
			}
			n := int64(0)
			for _, p := range packet.Protocols() {
				if tg.Responsive[p] {
					n++
				}
			}
			perProto += n
			if n > 0 {
				listed++
			}
		}
		return true
	})
	if int64(c.HitlistSize) != listed {
		return fmt.Errorf("hitlist has %d entries, the sources list %d targets", c.HitlistSize, listed)
	}
	if want := int64(c.Workers) * perProto; c.ProbesAnycastStage != want {
		return fmt.Errorf("anycast stage sent %d probes, want %d workers × %d listed protocols = %d",
			c.ProbesAnycastStage, c.Workers, perProto, want)
	}
	measured := int64(0)
	for _, id := range slices.Sorted(maps.Keys(c.Entries)) {
		e := c.Entries[id]
		if e.GCDMeasured {
			measured++
		}
		if e.InM() && e.MaxReceivers < 2 {
			return fmt.Errorf("ℳ entry %s has %d receivers", e.Prefix, e.MaxReceivers)
		}
		if !e.InG() {
			continue
		}
		if k := w.TargetAt(c.V6, id).KindAt(c.DayIndex); k != netsim.Anycast && k != netsim.BackingAnycast {
			return fmt.Errorf("𝒢 entry %s is %s on day %d", e.Prefix, k, c.DayIndex)
		}
		if e.GCDSites < 2 || len(e.GCDCities) != e.GCDSites {
			return fmt.Errorf("𝒢 entry %s has %d sites and %d cities", e.Prefix, e.GCDSites, len(e.GCDCities))
		}
	}
	if want := int64(vps) * measured; c.ProbesGCDStage != want {
		return fmt.Errorf("GCD stage sent %d probes, want %d VPs × %d measured entries = %d",
			c.ProbesGCDStage, vps, measured, want)
	}
	if c.CountG() == 0 {
		return fmt.Errorf("degenerate census: 𝒢 is empty")
	}
	return nil
}

// replay is the census's stage calls made one by one: the candidates of
// the anycast-based stage and the 𝒢 the GCD stage confirms among them.
type replay struct {
	candidates, g []int
	anycastProbes int64
	gcdProbes     int64
}

// replayCensus runs hitlist.ForDay → manycast.MultiProtocol → gcdmeas.Run
// with the options RunDaily uses on a fresh pipeline's day, each call
// under a span.
func replayCensus(env *censusEnv, root *obs.ActiveSpan) (*replay, error) {
	w, par := env.w, runtime.NumCPU()
	start := netsim.DayTime(censusDay)

	sp := root.Child("hitlist.ForDay")
	hl := hitlist.ForDay(w, false, censusDay)
	sp.End()

	sp = root.Child("manycast.MultiProtocol")
	results, err := manycast.MultiProtocol(w, env.dep, hl, manycast.Options{
		Start:         start,
		Offset:        time.Second,
		Rate:          manycast.DefaultRate,
		MeasurementID: uint16(censusDay),
		Parallelism:   par,
	}, packet.Protocols())
	sp.End()
	if err != nil {
		return nil, err
	}
	r := &replay{}
	cands := make(map[int]bool)
	for _, res := range results {
		r.anycastProbes += res.ProbesSent
		for _, ob := range res.Observations {
			if ob.IsCandidate() {
				cands[ob.TargetID] = true
			}
		}
	}
	r.candidates = slices.Sorted(maps.Keys(cands))
	var icmp, tcp []int
	for _, id := range r.candidates {
		tg := w.TargetAt(false, id)
		switch {
		case tg.Responsive[packet.ICMP]:
			icmp = append(icmp, id)
		case tg.Responsive[packet.TCP]:
			tcp = append(tcp, id)
		}
	}

	sp = root.Child("gcdmeas.Run")
	for _, part := range []struct {
		proto packet.Protocol
		ids   []int
	}{{packet.ICMP, icmp}, {packet.TCP, tcp}} {
		if len(part.ids) == 0 {
			continue
		}
		rep := gcdmeas.Run(w, part.ids, false, gcdmeas.Campaign{
			VPs:         env.vps,
			Proto:       part.proto,
			At:          start.Add(6 * time.Hour),
			Parallelism: par,
		})
		r.gcdProbes += rep.ProbesSent
		for id, out := range rep.Outcomes {
			if out.Result.Anycast {
				r.g = append(r.g, id)
			}
		}
	}
	sp.End()
	sort.Ints(r.g)
	return r, nil
}

// traceCensus is the traced census run. On one cold world it times a full
// target-derivation pass and then replays the census stage by stage under
// spans, with netsim telemetry counting arena misses. On a second cold
// world, built from the same config, it runs RunDaily untraced. The
// replay must find RunDaily's candidates and 𝒢. core.rest_s, RunDaily's
// wall time minus the replay's stage spans, is RunDaily's work beyond the
// three stages plus the run-to-run difference of the stages on the two
// identical worlds.
func traceCensus(rc runConfig, o *outcome, env *censusEnv, setup func() (*censusEnv, error)) error {
	tr := newTracer()
	tel := &netsim.Telemetry{}
	env.w.SetTelemetry(tel)
	universe := env.w.NumTargets(false)

	sp := tr.root("netsim.IterTargets")
	env.w.IterTargets(false, 0, func([]netsim.Target) bool { return true })
	sp.End()

	root := tr.root("census.replay")
	t0 := time.Now()
	rep, err := replayCensus(env, root)
	root.End()
	replayWall := time.Since(t0)
	o.op("census replay", err)
	if err != nil {
		return err
	}
	derivations := tel.ArenaMisses()
	env = nil
	runtime.GC()

	if env, err = setup(); err != nil {
		return err
	}
	var c *core.DailyCensus
	u, err := measure(func() error {
		var err error
		c, err = env.pipe.RunDaily(censusDay, false, core.DayOptions{})
		return err
	})
	o.op("census day", err)
	if err != nil {
		return err
	}
	o.check("census", checkCensus(env.w, len(env.vps), c))
	o.check("replay vs RunDaily", compareReplay(rep, c))

	forDay, anycast, gcd := tr.total("hitlist.ForDay"), tr.total("manycast.MultiProtocol"), tr.total("gcdmeas.Run")
	o.set("hitlist.for_day_s", "s", forDay)
	o.set("netsim.derive_universe_s", "s", tr.total("netsim.IterTargets"))
	o.set("netsim.target_derivations", "count", float64(derivations))
	o.set("netsim.derivations_per_target", "ratio", float64(derivations)/float64(universe))
	o.set("manycast.stage_s", "s", anycast)
	o.set("manycast.probes", "count", float64(rep.anycastProbes))
	o.set("manycast.probes_per_s", "1/s", float64(rep.anycastProbes)/anycast)
	o.set("gcdmeas.stage_s", "s", gcd)
	o.set("gcdmeas.probes", "count", float64(rep.gcdProbes))
	o.set("core.rest_s", "s", u.wall.Seconds()-forDay-anycast-gcd)
	o.setRuntime(u)
	o.set("trace.coverage", "share", tr.coverage(t0, t0.Add(replayWall), "hitlist.ForDay", "manycast.MultiProtocol", "gcdmeas.Run"))
	// The replay differs from the same calls made untraced only by its
	// four spans, so its tracing overhead is their cost, timed on their
	// own, over its wall time.
	o.set("trace.overhead", "share", 4*spanSeconds()/replayWall.Seconds())
	return tr.write(rc.traceTo)
}

// spanSeconds is the mean wall time of opening and ending one span,
// timed over a few thousand on a throwaway tracer.
func spanSeconds() float64 {
	const n = 4096
	root := newTracer().root("spans")
	t0 := time.Now()
	for range n {
		root.Child("span").End()
	}
	return time.Since(t0).Seconds() / n
}

// compareReplay checks that the stage-by-stage replay found exactly
// RunDaily's candidates and 𝒢.
func compareReplay(r *replay, c *core.DailyCensus) error {
	if got := c.Candidates(); !slices.Equal(r.candidates, got) {
		return fmt.Errorf("replay found %d candidates, RunDaily %d", len(r.candidates), len(got))
	}
	if got := c.G(); !slices.Equal(r.g, got) {
		return fmt.Errorf("replay confirmed %d in 𝒢, RunDaily %d", len(r.g), len(got))
	}
	if r.anycastProbes != c.ProbesAnycastStage || r.gcdProbes != c.ProbesGCDStage {
		return fmt.Errorf("replay sent %d/%d probes, RunDaily %d/%d",
			r.anycastProbes, r.gcdProbes, c.ProbesAnycastStage, c.ProbesGCDStage)
	}
	return nil
}
