package main

import (
	"fmt"
	"math"

	"lattice/internal/beagle"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// garli-search: GARLI-style GA searches with phylo.SearchWith on beagle
// evaluators, over simulated 50-taxon GTR+Γ4 nucleotide alignments and
// simulated amino-acid alignments. The search seed and generation
// budget are fixed; the alignments come from the workload seed. The
// grid layers stay idle: this is the workload where the likelihood
// kernels do the work.
const garliSearchSeed = 9

// garliData is one simulated alignment and its search shape.
type garliData struct {
	suffix      string // metric suffix: ".nuc" or ".aa"
	al          *phylo.Alignment
	model       *phylo.Model
	rates       *phylo.SiteRates
	generations int

	data  *phylo.PatternData
	eng   *beagle.Engine
	res   *phylo.SearchResult
	cells float64 // the engine's TotalWork after the search
}

type garli struct {
	sets []*garliData
}

// garliShape sizes one data type's share of the workload: how many
// alignments, of how many taxa and sites, searched for how many
// generations.
type garliShape struct {
	suffix                  string
	model                   func() (*phylo.Model, error)
	count, taxa, sites, gen int
}

// garliShapes is the workload: several alignments per data type, since
// one search's cost depends on the simulated tree and data; the sum
// over several varies far less from seed to seed.
var garliShapes = []garliShape{
	{".nuc", gtrModel, 12, 50, 150, 20},
	{".aa", phylo.NewEmpiricalAA, 12, 10, 80, 6},
}

func gtrModel() (*phylo.Model, error) {
	return phylo.NewGTR([6]float64{1.1, 3.2, 0.8, 1.3, 4.0, 1}, []float64{0.28, 0.22, 0.26, 0.24})
}

func newGarli(seed int64) (instance, error) {
	return newGarliShaped(seed, garliShapes)
}

// newGarliShaped simulates every alignment of the shapes on random
// trees with Γ4 rates.
func newGarliShaped(seed int64, shapes []garliShape) (*garli, error) {
	rng := sim.NewRNG(seed).Stream("perfbench-garli")
	g := &garli{}
	for _, sh := range shapes {
		model, err := sh.model()
		if err != nil {
			return nil, err
		}
		rates, err := phylo.NewSiteRates(phylo.RateGamma, 0.6, 0, 4)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sh.count; i++ {
			// The topology is fixed per dataset index; the seed draws
			// the branch lengths and the sequences. A search's cost
			// depends strongly on the tree's shape (the incremental
			// engine recomputes the path to the root), so fixing the
			// shapes keeps the run's size the same across seeds.
			tree := phylo.RandomTree(phylo.TaxonNames(sh.taxa), 0.08, sim.NewRNG(int64(1000+i)))
			for _, n := range tree.Nodes {
				if n.Parent != nil {
					n.Length = rng.Exp(0.08)
				}
			}
			al, err := phylo.SimulateAlignment(tree, model, rates, sh.sites, rng)
			if err != nil {
				return nil, err
			}
			g.sets = append(g.sets, &garliData{suffix: sh.suffix, al: al, model: model, rates: rates,
				generations: sh.gen})
		}
	}
	return g, nil
}

func searchConfig(d *garliData) phylo.SearchConfig {
	cfg := phylo.DefaultSearchConfig()
	cfg.MaxGenerations = d.generations
	cfg.StagnationGenerations = d.generations
	cfg.AttachmentsPerTaxon = 4
	// No gain counts as an improvement, so every search runs its whole
	// generation budget and exactly one final branch-length sweep: the
	// number of likelihood evaluations is fixed, whatever the data.
	cfg.ImprovementEps = math.Inf(1)
	return cfg
}

// setup compiles each alignment into site patterns and builds its
// engine.
func (g *garli) setup(it *iteration) error {
	for _, d := range g.sets {
		var err error
		it.tr.do("phylo.compile"+d.suffix, func() { d.data, err = d.al.Compile() })
		if err != nil {
			return err
		}
		it.tr.do("beagle.new"+d.suffix, func() { d.eng, err = beagle.New(d.data, d.model, d.rates) })
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *garli) run(it *iteration) error {
	for _, d := range g.sets {
		var ev phylo.Evaluator = d.eng
		if it.tr != nil {
			ev = newEvalProbe(d.eng, it.tr, d.suffix)
		}
		var err error
		it.tr.do("phylo.search"+d.suffix, func() {
			d.res, err = phylo.SearchWith(ev, d.al.Names, searchConfig(d), sim.NewRNG(garliSearchSeed))
		})
		if err != nil {
			return err
		}
		// Each engine's partials banks are released once its search is
		// done, so only one engine's working set is live at a time.
		d.cells, d.eng = d.eng.TotalWork(), nil
		it.lap()
	}
	return nil
}

// collect checks each search's best score against the reference
// (non-beagle) likelihood of the returned tree, and reports lnL and
// cell counts as the iteration's digest.
func (g *garli) collect(it *iteration) error {
	it.digest = ""
	cells := map[string]float64{}
	for i, d := range g.sets {
		it.ops++
		ref, err := phylo.NewLikelihood(d.data, d.model, d.rates)
		if err != nil {
			return err
		}
		want := ref.LogLikelihood(d.res.BestTree)
		ok := math.Abs(want-d.res.BestLogL) <= 1e-6*math.Abs(want)
		it.check("lnL matches reference engine", ok, "search %d: %.10f vs reference %.10f", i, d.res.BestLogL, want)
		if !ok {
			it.failed++
		}
		cells[d.suffix] += d.cells
		it.digest += fmt.Sprintf("%x/%.0f ", math.Float64bits(d.res.BestLogL), d.cells)
	}
	for _, sh := range garliShapes {
		dt := sh.suffix
		evalBusy := it.tr.busy("beagle.eval" + dt)
		optBusy := it.tr.busy("beagle.optimize" + dt)
		it.layer["beagle.evals"+dt] = it.tr.calls("beagle.eval" + dt)
		it.layer["beagle.eval_busy_s"+dt] = evalBusy
		it.layer["beagle.optimize_calls"+dt] = it.tr.calls("beagle.optimize" + dt)
		it.layer["beagle.optimize_busy_s"+dt] = optBusy
		it.layer["beagle.cells"+dt] = cells[dt]
		if evalBusy+optBusy > 0 {
			it.layer["beagle.cells_per_s"+dt] = cells[dt] / (evalBusy + optBusy)
		}
		it.layer["phylo.ga_self_s"+dt] = it.tr.self("phylo.search" + dt)
	}
	if it.index == 0 {
		return garliCanary(it)
	}
	return nil
}

func (g *garli) teardown() error {
	for _, d := range g.sets {
		d.data, d.eng, d.res = nil, nil, nil
	}
	return nil
}

// The canary is a small fixed-seed search whose final lnL and cell
// count are pinned: a change to the likelihood kernels or the GA that
// moves either number fails the benchmark's correctness gate, on any
// workload seed.
const (
	canarySeed     = 1
	canaryNucLnL   = -453.23774805991872
	canaryNucCells = 6626304
	canaryAALnL    = -280.17268553641168
	canaryAACells  = 60720000
)

func garliCanary(it *iteration) error {
	g, err := newGarliShaped(canarySeed, []garliShape{
		{".nuc", gtrModel, 1, 8, 100, 5},
		{".aa", phylo.NewEmpiricalAA, 1, 6, 50, 3},
	})
	if err != nil {
		return err
	}
	sub := &iteration{}
	if err := g.setup(sub); err != nil {
		return err
	}
	if err := g.run(sub); err != nil {
		return err
	}
	pins := []struct{ lnL, cells float64 }{{canaryNucLnL, canaryNucCells}, {canaryAALnL, canaryAACells}}
	for i, d := range g.sets {
		it.ops++
		ok := d.res.BestLogL == pins[i].lnL && d.cells == pins[i].cells
		it.check("canary search matches pinned lnL and cells", ok,
			"%s: lnL %.17g cells %.17g, pinned %.17g and %.17g", d.suffix, d.res.BestLogL, d.cells, pins[i].lnL, pins[i].cells)
		if !ok {
			it.failed++
		}
	}
	return nil
}
