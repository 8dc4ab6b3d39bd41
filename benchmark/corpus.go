package main

// The one seeded corpus generator: every catalog, train stream and CSV
// table a workload or the traced ladder touches comes from here, and
// every byte is a function of (-seed, scale) alone. Catalogs are
// streamed (generate one sketch, hand it over, drop it) so the
// generator never holds a catalog in memory — the 20 000-sketch
// catalog would otherwise dominate the benchmark's own peak RSS.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"misketch"
)

// sketchSize is the sketch size of every generated sketch: 256 keeps a
// 1000-candidate catalog at ~6 MB decoded, inside the store's 64 MiB
// LRU, and the 20 000-candidate one at ~160 MB, outside it.
const sketchSize = 256

// scale sizes the corpora. fullScale is what BENCHMARK.json measures;
// shortScale (-short) is the same shapes at ~100 candidates, for the
// smoke tests.
type scale struct {
	numCands     int // num1k
	mixedCands   int // mixed1k
	selDomains   int // sel20k: disjoint key domains
	selPerDomain int // sel20k: candidates per domain
	csvTables    int // csv tables per ingest round
	csvRows      int // rows per csv table
	ladderSel    int // domains of the ladder's compressed catalog
	// Calls per ladder rung, by how long one call takes: microseconds,
	// milliseconds, tens of milliseconds.
	countMicro, countMilli, countSlow int
}

var (
	fullScale = scale{numCands: 1000, mixedCands: 1000, selDomains: 100, selPerDomain: 200, csvTables: 100, csvRows: 2000,
		ladderSel: 5, countMicro: 300, countMilli: 15, countSlow: 9}
	shortScale = scale{numCands: 128, mixedCands: 100, selDomains: 10, selPerDomain: 12, csvTables: 6, csvRows: 400,
		ladderSel: 2, countMicro: 20, countMilli: 3, countSlow: 2}
)

// Names, prefixes and min-join filters of the catalogs. The min-joins
// are the ones the shapes were designed around (bench_test.go): 50 on
// the numeric and selective catalogs, the paper's 100 on the mixed one
// so the key-overlap prefilter has diffuse candidates to prune.
const (
	numPrefix   = "bench/"
	mixedPrefix = "batch/"
	selPrefix   = "sel/"
	csvPrefix   = "csv/"

	numMinJoin   = 50
	mixedMinJoin = 100
	selMinJoin   = 50
	csvMinJoin   = 50

	numKeys    = 400 // key universe of num1k, shared with its trains
	selKeys    = 300 // keys per sel20k domain
	csvKeys    = 500 // distinct keys per csv table (rows repeat them)
	trainRows  = 4000
	zipfTrains = 16 // distinct base trains of zipf_mutate
	batchSize  = 8  // trains per batch_sweep request
)

// subRNG derives an independent stream for one part of the corpus, so
// adding a stream never shifts the bytes of another.
func subRNG(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func keyNames(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// signal is the 20-level target every planted candidate depends on.
func signal(g int) float64 { return float64(g % 20) }

var sketchOpt = misketch.Options{Size: sketchSize}

func mustBuilder(role misketch.Role, numeric bool) *misketch.StreamBuilder {
	b, err := misketch.NewStreamBuilder(role, numeric, sketchOpt)
	if err != nil {
		panic(err) // fixed, valid options: only a bug gets here
	}
	return b
}

// emit receives one generated candidate; a nil sketch means "delete
// this name" (only the write-path workload streams deletes).
type emit func(name string, sk *misketch.Sketch) error

// genNum streams the num1k shape: n numeric candidates over the shared
// 400-key universe — a graded planted cohort (c%64==0, noise 0.08 up),
// marginal stragglers (c%64==1) and an independent bulk, so the cascade
// settles ~97% of pairs in its cheap tier.
func genNum(seed int64, n int, each emit) error {
	rng := subRNG(seed, "num/cands", 0)
	keys := keyNames("g", numKeys)
	for c := 0; c < n; c++ {
		b := mustBuilder(misketch.RoleCandidate, true)
		for g, key := range keys {
			var v float64
			switch c % 64 {
			case 0:
				v = signal(g) + (0.08+0.035*float64(c/64))*rng.NormFloat64()
			case 1:
				v = signal(g) + (1.0+float64(c/64))*rng.NormFloat64()
			default:
				v = rng.NormFloat64()
			}
			b.AddNum(key, v)
		}
		if err := each(numName(c), b.Sketch()); err != nil {
			return err
		}
	}
	return nil
}

func numName(c int) string { return fmt.Sprintf("%st%04d#x", numPrefix, c) }

// mutName names the i-th candidate zipf_mutate ingests mid-run.
func mutName(i int) string { return fmt.Sprintf("%smut%05d#x", numPrefix, i) }

// numPlanted reports whether a num1k name belongs to the planted
// cohort (mid-run mutations are planted too).
func numPlanted(name string) bool {
	rest, ok := strings.CutPrefix(name, numPrefix)
	if !ok {
		return false
	}
	if strings.HasPrefix(rest, "mut") {
		return true
	}
	c, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(rest, "t"), "#x"))
	return err == nil && c%64 == 0
}

// numTrain is the q-th base train over the num1k universe: 4000 rows,
// target = signal + noise.
func numTrain(seed int64, q int) *misketch.Sketch {
	rng := subRNG(seed, "num/train", q)
	keys := keyNames("g", numKeys)
	b := mustBuilder(misketch.RoleTrain, true)
	for i := 0; i < trainRows; i++ {
		g := rng.Intn(numKeys)
		b.AddNum(keys[g], signal(g)+0.25*rng.NormFloat64())
	}
	return b.Sketch()
}

// numMutation is the i-th mid-run candidate of zipf_mutate: a planted
// feature, so a stale cached top-K is a wrong answer, not a tie.
func numMutation(seed int64, i int) *misketch.Sketch {
	rng := subRNG(seed, "num/mut", i)
	b := mustBuilder(misketch.RoleCandidate, true)
	for g, key := range keyNames("g", numKeys) {
		b.AddNum(key, signal(g)+0.05*rng.NormFloat64())
	}
	return b.Sketch()
}

// mutationsOf is zipf_mutate's mutation stream for one seed.
func mutationsOf(seed int64) func(i int) *misketch.Sketch {
	return func(i int) *misketch.Sketch { return numMutation(seed, i) }
}

// genMixed streams the mixed1k shape: a quarter of the candidates are
// contiguous key windows inside the trains' domain, the rest diffuse
// over a wider universe — joins of ~60–90 samples that the min-join
// filter rejects and the key-overlap prefilter prunes without an
// estimator run.
func genMixed(seed int64, n int, each emit) error {
	rng := subRNG(seed, "mixed/cands", 0)
	keys := keyNames("g", 500)
	for c := 0; c < n; c++ {
		b := mustBuilder(misketch.RoleCandidate, true)
		if c%4 == 0 {
			lo := (c * 29) % 350
			for g := lo; g < lo+150; g++ {
				b.AddNum(keys[g], float64(g%7)+rng.NormFloat64())
			}
		} else {
			for j := 0; j < 120; j++ {
				b.AddNum(keys[rng.Intn(500)], float64(j%7)+rng.NormFloat64())
			}
		}
		if err := each(fmt.Sprintf("%st%04d#x", mixedPrefix, c), b.Sketch()); err != nil {
			return err
		}
	}
	return nil
}

// mixedTrain is the q-th of the batchSize base trains of batch_sweep,
// each over its own 150-key window.
func mixedTrain(seed int64, q int) *misketch.Sketch {
	rng := subRNG(seed, "mixed/train", q)
	keys := keyNames("g", 500)
	b := mustBuilder(misketch.RoleTrain, true)
	lo := q * 45
	for i := 0; i < trainRows; i++ {
		g := lo + rng.Intn(150)
		b.AddNum(keys[g], float64(g%7)+rng.NormFloat64())
	}
	return b.Sketch()
}

func selKeyPrefix(d int) string { return fmt.Sprintf("d%03d-k", d) }

// selLabel is a categorical value of the selective catalog: long
// enough, and shared enough, for the FSST symbol table to matter.
func selLabel(d, level int) string {
	return fmt.Sprintf("category/region-%03d/level-%02d", d, level)
}

// genSel streams the sel20k shape: domains×perDomain candidates, half
// numeric half categorical, in disjoint key domains — a train joins
// only its own domain's candidates, so the key index skips the other
// 99% without decoding them.
func genSel(seed int64, domains, perDomain int, each emit) error {
	rng := subRNG(seed, "sel/cands", 0)
	for d := 0; d < domains; d++ {
		keys := keyNames(selKeyPrefix(d), selKeys)
		labels := make([]string, 20)
		for l := range labels {
			labels[l] = selLabel(d, l)
		}
		for j := 0; j < perDomain; j++ {
			numeric := j%2 == 0
			planted := j%50 < 2
			b := mustBuilder(misketch.RoleCandidate, numeric)
			for g, key := range keys {
				switch {
				case numeric && planted:
					b.AddNum(key, signal(g)+0.3*rng.NormFloat64())
				case numeric:
					b.AddNum(key, rng.NormFloat64())
				case planted:
					b.AddStr(key, labels[g%20])
				default:
					b.AddStr(key, labels[rng.Intn(12)])
				}
			}
			if err := each(fmt.Sprintf("%sd%03d/t%03d#x", selPrefix, d, j), b.Sketch()); err != nil {
				return err
			}
		}
	}
	return nil
}

// selTrain is the base train of one sel20k domain.
func selTrain(seed int64, d int) *misketch.Sketch {
	rng := subRNG(seed, "sel/train", d)
	keys := keyNames(selKeyPrefix(d), selKeys)
	b := mustBuilder(misketch.RoleTrain, true)
	for i := 0; i < trainRows; i++ {
		g := rng.Intn(selKeys)
		b.AddNum(keys[g], signal(g)+0.25*rng.NormFloat64())
	}
	return b.Sketch()
}

// csvColumns are the value columns of every csv table, with the
// featurization that collapses its repeated keys.
var csvColumns = []struct {
	name string
	agg  misketch.AggFunc
}{
	{"n1", misketch.AggAvg},
	{"n2", misketch.AggAvg},
	{"c1", misketch.AggMode},
	{"c2", misketch.AggMode},
}

// genCSV returns the t-th raw input table of ingest_compact as CSV
// bytes: key + 2 numeric + 2 categorical columns, every key repeated
// ~rows/500 times so sketching has to aggregate.
func genCSV(seed int64, t, rows int) []byte {
	rng := subRNG(seed, "csv/table", t)
	var buf bytes.Buffer
	buf.Grow(rows * 48)
	buf.WriteString("key,n1,n2,c1,c2\n")
	num := make([]byte, 0, 24)
	for r := 0; r < rows; r++ {
		g := rng.Intn(csvKeys)
		buf.WriteString("k")
		buf.WriteString(strconv.Itoa(g))
		for _, v := range [2]float64{signal(g) + 0.5*rng.NormFloat64(), rng.NormFloat64()} {
			buf.WriteByte(',')
			buf.Write(strconv.AppendFloat(num[:0], v, 'g', 7, 64))
		}
		fmt.Fprintf(&buf, ",grade-%02d,site-%02d\n", g%20, rng.Intn(15))
	}
	return buf.Bytes()
}

func csvSketchName(t int, col string) string {
	return fmt.Sprintf("%st%04d#%s", csvPrefix, t, col)
}

// csvTrain is the base train over the csv tables' key universe.
func csvTrain(seed int64) *misketch.Sketch {
	rng := subRNG(seed, "csv/train", 0)
	keys := keyNames("k", csvKeys)
	b := mustBuilder(misketch.RoleTrain, true)
	for i := 0; i < trainRows; i++ {
		g := rng.Intn(csvKeys)
		b.AddNum(keys[g], signal(g)+0.25*rng.NormFloat64())
	}
	return b.Sketch()
}

// freshTrain returns a never-seen-before variant of a base train: the
// same keys with every target value jittered from rng. Its bytes — and
// so its content digest — differ from every other train's, so neither
// the probe cache nor the result cache can answer for it, while the
// dependence structure the catalog was planted against is intact. It
// costs microseconds, so the closed loop can mint one per request
// between (not inside) timed operations.
func freshTrain(base *misketch.Sketch, rng *rand.Rand) *misketch.Sketch {
	nums := make([]float64, len(base.Nums))
	for i, v := range base.Nums {
		nums[i] = v + 0.02*rng.NormFloat64()
	}
	return &misketch.Sketch{
		Method: base.Method, Role: base.Role, Seed: base.Seed, Size: base.Size,
		Numeric: true, KeyHashes: base.KeyHashes, Nums: nums, SourceRows: base.SourceRows,
	}
}

// sketchBytes is the wire form of a sketch (WriteSketch).
func sketchBytes(sk *misketch.Sketch) []byte {
	var buf bytes.Buffer
	if err := misketch.WriteSketch(&buf, sk); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// corpusDigest is the content digest of one catalog (with its trains)
// at (seed, scale): the value the unit test pins.
func corpusDigest(catalog string, seed int64, sc scale) (string, error) {
	h := sha256.New()
	add := func(name string, sk *misketch.Sketch) error {
		fmt.Fprintf(h, "%s\x00", name)
		h.Write(sketchBytes(sk))
		return nil
	}
	var err error
	switch catalog {
	case "num1k":
		err = genNum(seed, sc.numCands, add)
		for q := 0; q < zipfTrains; q++ {
			_ = add("train", numTrain(seed, q))
		}
		_ = add("mutation", numMutation(seed, 0))
	case "mixed1k":
		err = genMixed(seed, sc.mixedCands, add)
		for q := 0; q < batchSize; q++ {
			_ = add("train", mixedTrain(seed, q))
		}
	case "sel20k":
		err = genSel(seed, sc.selDomains, sc.selPerDomain, add)
		for d := 0; d < sc.selDomains; d++ {
			_ = add("train", selTrain(seed, d))
		}
	case "csv":
		for t := 0; t < sc.csvTables; t++ {
			h.Write(genCSV(seed, t, sc.csvRows))
		}
		_ = add("train", csvTrain(seed))
	default:
		return "", fmt.Errorf("unknown catalog %q", catalog)
	}
	return hex.EncodeToString(h.Sum(nil)), err
}
