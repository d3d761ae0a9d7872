package experiment

import (
	"fmt"

	"sdsrp/internal/config"
	"sdsrp/internal/core"
	"sdsrp/internal/report"
	"sdsrp/internal/stats"
	"sdsrp/internal/world"
)

// CopiesSweep returns the Table II initial-copies sweep: 16..64 step 4.
func CopiesSweep() []int {
	var out []int
	for l := 16; l <= 64; l += 4 {
		out = append(out, l)
	}
	return out
}

// BufferSweep returns the Table II buffer sweep: 2.0..5.0 MB step 0.5.
func BufferSweep() []int64 {
	var out []int64
	for b := 4; b <= 10; b++ { // half-megabytes
		out = append(out, int64(b)*config.MB/2)
	}
	return out
}

// RateSweep returns the Table II generation-interval sweep:
// [10,15], [15,20], ..., [45,50] seconds per message.
func RateSweep() [][2]float64 {
	var out [][2]float64
	for lo := 10.0; lo <= 45; lo += 5 {
		out = append(out, [2]float64{lo, lo + 5})
	}
	return out
}

// metric extracts one y-value from a run result.
type metric struct {
	label string
	get   func(world.Result) float64
}

func paperMetrics() []metric {
	return []metric{
		{"Delivery ratio", func(r world.Result) float64 { return r.DeliveryRatio }},
		{"Average hopcounts", func(r world.Result) float64 { return r.AvgHops }},
		{"Overhead ratio", func(r world.Result) float64 { return r.OverheadRatio }},
	}
}

// curve is one line of a sweep's panels: its label and the scenario change
// that selects it.
type curve struct {
	label  string
	mutate func(*config.Scenario)
}

// axis is a sweep's x-axis: its points, their tick labels, and the scenario
// change that applies point i.
type axis struct {
	label string
	x     []float64
	ticks []string
	apply func(*config.Scenario, int)
}

// sweep is one three-panel experiment: every curve at every axis point,
// once per seed.
type sweep struct {
	id     string  // scenario-name prefix
	curves []curve // nil: one curve per compared policy (Options.Policies)
	axis   axis
	// panel returns the ID and title of the panel plotting metric row mi.
	panel func(mi int, metric string) (id, title string)
}

// paperPanels names the panels of one Fig. 8 / Fig. 9 column after the
// paper's letters: columns are copies/buffer/rate, rows are
// delivery/hops/overhead.
func paperPanels(figure string, col int, title string) func(int, string) (string, string) {
	return func(mi int, metric string) (string, string) {
		return figure + string(rune('a'+col*3+mi)), metric + " vs " + title
	}
}

// letteredPanels names an ablation's or extension's panels id-a to id-c.
func letteredPanels(id, title string) func(int, string) (string, string) {
	return func(mi int, metric string) (string, string) {
		return fmt.Sprintf("%s-%c", id, 'a'+mi), title + " — " + metric
	}
}

// runSweep executes curves × axis points × seeds as one batch and reduces
// the results to three panels (delivery ratio, hopcounts, overhead),
// averaging across seeds.
func runSweep(base config.Scenario, sw sweep, o Options) ([]report.Panel, error) {
	o = o.withDefaults()
	base = o.apply(base)
	if sw.curves == nil {
		for _, pol := range o.Policies {
			sw.curves = append(sw.curves, curve{pol, func(sc *config.Scenario) { sc.PolicyName = pol }})
		}
	}
	ax := sw.axis
	var scs []config.Scenario
	for _, c := range sw.curves {
		for xi := range ax.x {
			for _, seed := range o.Seeds {
				sc := base
				sc.Seed = seed
				c.mutate(&sc)
				ax.apply(&sc, xi)
				sc.Name = fmt.Sprintf("%s-%s-%s-%d", sw.id, c.label, ax.ticks[xi], seed)
				scs = append(scs, sc)
			}
		}
	}
	results, err := o.RunScenarios(scs)
	if err != nil {
		return nil, err
	}

	metrics := paperMetrics()
	panels := make([]report.Panel, len(metrics))
	for mi, m := range metrics {
		id, title := sw.panel(mi, m.label)
		panels[mi] = report.Panel{
			ID:     id,
			Title:  title,
			XLabel: ax.label,
			YLabel: m.label,
			XTicks: ax.ticks,
			X:      ax.x,
		}
		for ci, c := range sw.curves {
			y := make([]float64, len(ax.x))
			for xi := range ax.x {
				// The batch is curve-major, then point, then seed.
				run := results[(ci*len(ax.x)+xi)*len(o.Seeds):][:len(o.Seeds)]
				var sum float64
				for _, r := range run {
					sum += m.get(r)
				}
				y[xi] = sum / float64(len(run))
			}
			panels[mi].Curves = append(panels[mi].Curves, report.Curve{Label: c.label, Y: y})
		}
	}
	return panels, nil
}

// Fig8Copies reproduces Fig. 8 (a)–(c): metrics vs initial copies under
// random-waypoint (buffer 2.5 MB, rate [25,35]).
func Fig8Copies(o Options) ([]report.Panel, error) {
	return figCopies("fig8", config.RandomWaypoint(), o)
}

// Fig9Copies reproduces Fig. 9 (a)–(c) on the EPFL substitute.
func Fig9Copies(o Options) ([]report.Panel, error) {
	return figCopies("fig9", config.EPFL(), o)
}

func figCopies(figure string, base config.Scenario, o Options) ([]report.Panel, error) {
	ls := CopiesSweep()
	ax := axis{label: "initial copies L",
		apply: func(sc *config.Scenario, i int) { sc.InitialCopies = ls[i] }}
	for _, l := range ls {
		ax.x = append(ax.x, float64(l))
		ax.ticks = append(ax.ticks, fmt.Sprintf("%d", l))
	}
	return runSweep(base, sweep{id: figure, axis: ax,
		panel: paperPanels(figure, 0, "initial number of copies")}, o)
}

// Fig8Buffer reproduces Fig. 8 (d)–(f): metrics vs buffer size (L = 32,
// rate [25,35]).
func Fig8Buffer(o Options) ([]report.Panel, error) {
	return figBuffer("fig8", config.RandomWaypoint(), o)
}

// Fig9Buffer reproduces Fig. 9 (d)–(f) on the EPFL substitute.
func Fig9Buffer(o Options) ([]report.Panel, error) {
	return figBuffer("fig9", config.EPFL(), o)
}

func figBuffer(figure string, base config.Scenario, o Options) ([]report.Panel, error) {
	return runSweep(base, sweep{id: figure, axis: bufferAxis(),
		panel: paperPanels(figure, 1, "buffer size")}, o)
}

// bufferAxis is the Table II buffer sweep as an x-axis in megabytes.
func bufferAxis() axis {
	bs := BufferSweep()
	ax := axis{label: "buffer size (MB)",
		apply: func(sc *config.Scenario, i int) { sc.BufferBytes = bs[i] }}
	for _, b := range bs {
		x := float64(b) / float64(config.MB)
		ax.x = append(ax.x, x)
		ax.ticks = append(ax.ticks, fmt.Sprintf("%.1fMB", x))
	}
	return ax
}

// Fig8Rate reproduces Fig. 8 (g)–(i): metrics vs message generation rate
// (L = 32, buffer 2.5 MB). Interval [10,15] is the heaviest load; load
// decreases along the axis as in the paper.
func Fig8Rate(o Options) ([]report.Panel, error) {
	return figRate("fig8", config.RandomWaypoint(), o)
}

// Fig9Rate reproduces Fig. 9 (g)–(i) on the EPFL substitute.
func Fig9Rate(o Options) ([]report.Panel, error) {
	return figRate("fig9", config.EPFL(), o)
}

func figRate(figure string, base config.Scenario, o Options) ([]report.Panel, error) {
	rs := RateSweep()
	ax := axis{label: "generation interval (s)",
		apply: func(sc *config.Scenario, i int) {
			sc.GenIntervalLo, sc.GenIntervalHi = rs[i][0], rs[i][1]
		}}
	for _, r := range rs {
		ax.x = append(ax.x, r[0])
		ax.ticks = append(ax.ticks, fmt.Sprintf("%.0f-%.0f", r[0], r[1]))
	}
	return runSweep(base, sweep{id: figure, axis: ax,
		panel: paperPanels(figure, 2, "message generation interval")}, o)
}

// Fig3 reproduces the intermeeting-time distributions: traffic-free runs of
// both scenarios, with the empirical density binned against the fitted
// exponential λe^{−λx} (one panel per scenario).
func Fig3(o Options) ([]report.Panel, error) {
	o = o.withDefaults()
	rwp := o.apply(config.RandomWaypoint())
	epfl := o.apply(config.EPFL())
	for _, sc := range []*config.Scenario{&rwp, &epfl} {
		sc.GenIntervalLo = 0 // mobility only
		sc.PolicyName = "SprayAndWait"
	}
	rwp.Name, epfl.Name = "fig3a-rwp", "fig3b-epfl"
	// These runs are built directly (not through the runner) because the
	// panel needs the samples of an Intermeeting sink, not just the Result
	// digest.
	panels := make([]report.Panel, 0, 2)
	for i, sc := range []config.Scenario{rwp, epfl} {
		im, err := measureIntermeeting(sc)
		if err != nil {
			return nil, err
		}
		const nbins = 20
		bins := im.Histogram(nbins)
		p := report.Panel{
			ID:     []string{"fig3a", "fig3b"}[i],
			Title:  fmt.Sprintf("Intermeeting distribution, %s (n=%d, mean=%.0fs, fit err=%.3f)", sc.Name, im.Count(), im.Mean(), im.ExpFitError()),
			XLabel: "intermeeting time (s)",
			YLabel: "density",
		}
		for _, b := range bins {
			p.X = append(p.X, (b.Lo+b.Hi)/2)
		}
		emp := report.Curve{Label: "empirical"}
		model := report.Curve{Label: "exp fit"}
		for _, b := range bins {
			emp.Y = append(emp.Y, b.Density)
			model.Y = append(model.Y, b.ExpModel)
		}
		p.Curves = []report.Curve{emp, model}
		panels = append(panels, p)
	}
	return panels, nil
}

// measureIntermeeting runs sc with an Intermeeting sink attached and
// returns its samples.
func measureIntermeeting(sc config.Scenario) (*stats.Intermeeting, error) {
	im := &stats.Intermeeting{}
	w, err := world.Build(sc, world.WithTracer(im))
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(); err != nil {
		return nil, err
	}
	return im, nil
}

// Fig4 reproduces the priority-shape figure: U_i as a function of P(R_i)
// for the idealized Eq. 11 and the Eq. 13 Taylor truncations (k = 1, 2, 3,
// 5), with P(T_i) = 0 and n_i = 1 as in the paper's illustration.
func Fig4(Options) ([]report.Panel, error) {
	const steps = 50
	p := report.Panel{
		ID:     "fig4",
		Title:  "Priority U vs delivery probability P(R)",
		XLabel: "P(R)",
		YLabel: "U (pT=0, n=1)",
	}
	for i := 0; i <= steps; i++ {
		p.X = append(p.X, float64(i)/float64(steps)*0.99)
	}
	ideal := report.Curve{Label: "idealization"}
	for _, pr := range p.X {
		ideal.Y = append(ideal.Y, core.PriorityFromProbabilities(0, pr, 1))
	}
	p.Curves = append(p.Curves, ideal)
	for _, k := range []int{1, 2, 3, 5} {
		c := report.Curve{Label: fmt.Sprintf("Taylor k=%d", k)}
		for _, pr := range p.X {
			c.Y = append(c.Y, core.TaylorPriority(0, pr, 1, k))
		}
		p.Curves = append(p.Curves, c)
	}
	return []report.Panel{p}, nil
}
