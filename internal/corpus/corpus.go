// Package corpus generates synthetic open-data repositories that stand in
// for the paper's NYC Open Data and World Bank Finance (WBF) snapshots
// (Section V-C), which are not redistributable. The generator reproduces
// the structural properties the real-data experiments exercise:
//
//   - string join keys drawn from shared per-domain universes (dates, ZIP
//     codes, agency/country/project codes), so sampled table pairs are
//     actually joinable with varying containment;
//   - Zipf-skewed key frequencies (repeated join keys are the norm);
//   - value columns that are strings or numbers, with dependence on the
//     join key ranging from none to deterministic, so cross-table MI
//     spans the whole range;
//   - collection-level differences mirroring the paper's reported
//     statistics (NYC: large left key domains joined against small
//     right domains; WBF: mid-sized domains with heavier key repetition
//     and larger joins).
//
// True MI is unknown here, exactly as with the real collections; the
// full-join estimate serves as the reference, as in the paper.
package corpus

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"misketch/internal/hash"
	"misketch/internal/table"
)

// Config parameterizes a synthetic collection.
type Config struct {
	// Name labels the collection ("NYC", "WBF").
	Name string
	// NumTables is how many two-column tables to generate.
	NumTables int
	// NumDomains is how many shared key universes exist; tables joined
	// across domains have no overlap, so pairs are sampled within domains.
	NumDomains int
	// UniverseSize is the number of distinct keys in each domain universe.
	UniverseSize int
	// DomainMin/DomainMax bound the per-table key-domain size (the number
	// of distinct keys a table draws from its universe).
	DomainMin, DomainMax int
	// RowsMin/RowsMax bound the per-table row count.
	RowsMin, RowsMax int
	// ZipfMax bounds the Zipf skew exponent s ∈ [0, ZipfMax] of key
	// frequencies (0 = uniform).
	ZipfMax float64
	// NumericShare is the fraction of value columns that are numeric.
	NumericShare float64
	// Categories is the cardinality of ordinary categorical value columns.
	Categories int
	// HighCardShare is the fraction of categorical columns that instead
	// get a high-cardinality label space (hundreds to thousands of
	// categories). These reproduce the real-data regime where the MLE
	// estimator's outputs reach the [4, 6] nats range the paper reports
	// (Section V-C3), far above anything the KSG family produces.
	HighCardShare float64
}

// NYCConfig mirrors the NYC Open Data collection: left tables with large
// key domains (the paper reports ≈11.2k) joined against small domains
// (≈1k), average full join ≈8.5k rows. Scaled to laptop size while
// keeping the domain-size asymmetry and skew.
func NYCConfig() Config {
	return Config{
		Name:          "NYC",
		NumTables:     60,
		NumDomains:    6,
		UniverseSize:  10000,
		DomainMin:     600,
		DomainMax:     9000,
		RowsMin:       2000,
		RowsMax:       14000,
		ZipfMax:       1.0,
		NumericShare:  0.55,
		Categories:    24,
		HighCardShare: 0.3,
	}
}

// WBFConfig mirrors the World Bank Finance collection: mid-sized domains
// on both sides (paper: ≈3.1k/3.5k) with heavy key repetition and larger
// joins (≈34k).
func WBFConfig() Config {
	return Config{
		Name:          "WBF",
		NumTables:     60,
		NumDomains:    5,
		UniverseSize:  2500,
		DomainMin:     800,
		DomainMax:     2400,
		RowsMin:       6000,
		RowsMax:       20000,
		ZipfMax:       0.9,
		NumericShare:  0.5,
		Categories:    16,
		HighCardShare: 0.3,
	}
}

// Table is one generated two-column table [key, value] plus its metadata.
type Table struct {
	// T holds columns "k" (string join key) and "v" (feature/target).
	T *table.Table
	// Domain indexes the key universe the table draws from.
	Domain int
	// Numeric reports the value column's kind.
	Numeric bool
	// Dependence is the key-dependence level α ∈ [0, 1] of the value
	// column (0 = independent of the key, 1 = deterministic function of
	// it). Recorded for analysis; discovery treats it as unknown.
	Dependence float64
	// ID numbers the table within its corpus.
	ID int
}

// KeyCol and ValCol name the two columns of every generated table.
const (
	KeyCol = "k"
	ValCol = "v"
)

// Corpus is a generated collection of joinable tables.
type Corpus struct {
	Config Config
	Tables []*Table
}

// Generate builds a corpus deterministically from the seed.
func Generate(cfg Config, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Config: cfg}
	for i := 0; i < cfg.NumTables; i++ {
		c.Tables = append(c.Tables, genTable(cfg, i, rng))
	}
	return c
}

// domainKey renders key i of domain d. Domains are styled after common
// open-data join attributes to keep examples readable.
func domainKey(d, i int) string {
	switch d % 5 {
	case 0: // dates
		return fmt.Sprintf("2017-%02d-%02d#%d", 1+(i/28)%12, 1+i%28, i/336)
	case 1: // ZIP-like codes
		return fmt.Sprintf("1%04d", i)
	case 2: // agency codes
		return fmt.Sprintf("AGY-%05d", i)
	case 3: // country/project codes
		return fmt.Sprintf("P%06d", i)
	default: // facility ids
		return fmt.Sprintf("FAC/%05d", i)
	}
}

// latentNum is the hidden per-key numeric field φ(key) dependent columns
// are built from; it is a deterministic hash of the key, shared by every
// table in the corpus, which is what makes columns from different tables
// mutually informative through the join.
func latentNum(d, i int) float64 {
	u := hash.Unit(uint64(d)<<32 | uint64(i))
	// Probit-ish transform to get a heavier-tailed latent than uniform.
	return math.Tan((u - 0.5) * 2.8)
}

// latentCat is the hidden per-key category γ(key).
func latentCat(d, i, categories int) int {
	return int(hash.Mix64(uint64(d)*1e9+uint64(i)) % uint64(categories))
}

func genTable(cfg Config, id int, rng *rand.Rand) *Table {
	d := rng.Intn(cfg.NumDomains)
	domSize := cfg.DomainMin + rng.Intn(cfg.DomainMax-cfg.DomainMin+1)
	if domSize > cfg.UniverseSize {
		domSize = cfg.UniverseSize
	}
	// Contiguous window into the universe: overlap between two tables of
	// the same domain then varies smoothly with their window offsets,
	// giving the full containment spectrum across pairs.
	start := rng.Intn(cfg.UniverseSize - domSize + 1)
	rows := cfg.RowsMin + rng.Intn(cfg.RowsMax-cfg.RowsMin+1)
	s := rng.Float64() * cfg.ZipfMax
	weights := zipfWeights(domSize, s)
	cum := cumulative(weights)

	numeric := rng.Float64() < cfg.NumericShare
	cats := cfg.Categories
	if !numeric && rng.Float64() < cfg.HighCardShare {
		cats = 200 + rng.Intn(1800) // high-cardinality label space
	}
	dependence := rng.Float64()
	if rng.Float64() < 0.2 {
		dependence = 0 // a dedicated share of fully independent columns
	}

	keys := make([]string, rows)
	var nums []float64
	var strs []string
	if numeric {
		nums = make([]float64, rows)
	} else {
		strs = make([]string, rows)
	}
	noiseScale := math.Sqrt(1 - dependence*dependence)
	for r := 0; r < rows; r++ {
		ki := start + pickWeighted(cum, rng)
		keys[r] = domainKey(d, ki)
		if numeric {
			nums[r] = dependence*latentNum(d, ki) + noiseScale*rng.NormFloat64()
		} else {
			if rng.Float64() < dependence {
				strs[r] = fmt.Sprintf("c%04d", latentCat(d, ki, cats))
			} else {
				strs[r] = fmt.Sprintf("c%04d", rng.Intn(cats))
			}
		}
	}
	var vc *table.Column
	if numeric {
		vc = table.NewFloatColumn(ValCol, nums)
	} else {
		vc = table.NewStringColumn(ValCol, strs)
	}
	return &Table{
		T:          table.New(table.NewStringColumn(KeyCol, keys), vc),
		Domain:     d,
		Numeric:    numeric,
		Dependence: dependence,
		ID:         id,
	}
}

// zipfWeights returns unnormalized Zipf(s) weights over ranks 1..n,
// shuffled deterministically is NOT applied here — rank r maps to key
// offset r, so low offsets are the heavy keys.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

func cumulative(w []float64) []float64 {
	c := make([]float64, len(w))
	acc := 0.0
	for i, v := range w {
		acc += v
		c[i] = acc
	}
	return c
}

// pickWeighted samples an index proportional to the weights behind cum.
func pickWeighted(cum []float64, rng *rand.Rand) int {
	u := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pair is an ordered (train, candidate) table pair for MI discovery.
type Pair struct {
	Train, Cand *Table
}

// Pairs draws up to maxPairs distinct ordered same-domain pairs uniformly
// at random — the corpus analogue of the paper's uniform sample of
// pairwise combinations.
func (c *Corpus) Pairs(maxPairs int, rng *rand.Rand) []Pair {
	byDomain := map[int][]*Table{}
	for _, t := range c.Tables {
		byDomain[t.Domain] = append(byDomain[t.Domain], t)
	}
	var all []Pair
	for _, d := range slices.Sorted(maps.Keys(byDomain)) {
		ts := byDomain[d]
		for i := range ts {
			for j := range ts {
				if i != j {
					all = append(all, Pair{Train: ts[i], Cand: ts[j]})
				}
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > maxPairs {
		all = all[:maxPairs]
	}
	return all
}

// Stats summarizes structural properties of a corpus, mirroring the
// figures the paper reports for the real collections (average join-key
// domain sizes and average full-join size over sampled pairs).
type Stats struct {
	AvgTrainDomain float64
	AvgCandDomain  float64
	AvgFullJoin    float64
	Pairs          int
}

// MeasureStats computes Stats over the given pairs.
func MeasureStats(pairs []Pair) Stats {
	var s Stats
	for _, p := range pairs {
		trainFreq := table.KeyFrequencies(p.Train.T.MustColumn(KeyCol))
		candFreq := table.KeyFrequencies(p.Cand.T.MustColumn(KeyCol))
		s.AvgTrainDomain += float64(len(trainFreq))
		s.AvgCandDomain += float64(len(candFreq))
		join := 0
		for k, n := range trainFreq {
			if _, ok := candFreq[k]; ok {
				join += n
			}
		}
		s.AvgFullJoin += float64(join)
		s.Pairs++
	}
	if s.Pairs > 0 {
		n := float64(s.Pairs)
		s.AvgTrainDomain /= n
		s.AvgCandDomain /= n
		s.AvgFullJoin /= n
	}
	return s
}
