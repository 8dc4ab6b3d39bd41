// Command datagen materializes the synthetic workloads: the paper's
// Trinomial/CDUnif benchmark tables and the NYC/WBF open-data stand-in
// corpora as CSV files, and the planted-cohort rank corpus as ready-to-
// serve sketch stores. Useful for inspecting the data the experiments
// run on, and for feeding the misketch CLI and `misketch serve`
// realistic inputs.
//
// Usage:
//
//	datagen -out DIR [-kind trinomial|cdunif|corpus|cohort] [-m 512] [-rows 10000]
//	        [-collection NYC|WBF] [-tables 20] [-shards 1] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"misketch"
	"misketch/internal/corpus"
	"misketch/internal/synth"
	"misketch/internal/table"
)

func main() {
	var (
		out        = flag.String("out", "", "output directory (required)")
		kind       = flag.String("kind", "trinomial", "what to generate: trinomial, cdunif, corpus, cohort")
		m          = flag.Int("m", 512, "distinct-value parameter for synthetic distributions")
		rows       = flag.Int("rows", 10000, "rows per synthetic dataset")
		keygen     = flag.String("keygen", "keydep", "key decomposition: keyind or keydep")
		collection = flag.String("collection", "WBF", "corpus config: NYC or WBF")
		tables     = flag.Int("tables", 0, "override number of corpus tables or cohort candidates (0 = config default; cohort: 1000)")
		shards     = flag.Int("shards", 1, "cohort: split the candidates over this many disjoint stores, OUT/shard0..")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	die(os.MkdirAll(*out, 0o755))
	rng := rand.New(rand.NewSource(*seed))

	switch *kind {
	case "trinomial", "cdunif":
		var ds *synth.Dataset
		if *kind == "trinomial" {
			ds = synth.GenTrinomial(*m, *rows, rng)
		} else {
			ds = synth.GenCDUnif(*m, *rows, rng)
		}
		kg := synth.KeyDep
		if *keygen == "keyind" {
			kg = synth.KeyInd
		}
		tr := synth.TreatMixture
		train, cand, err := ds.Tables(kg, tr, rng)
		die(err)
		writeCSV(filepath.Join(*out, "train.csv"), train)
		writeCSV(filepath.Join(*out, "cand.csv"), cand)
		fmt.Printf("wrote %s: train.csv (%d rows), cand.csv (%d rows), true MI = %.4f nats\n",
			ds.Name, train.NumRows(), cand.NumRows(), ds.TrueMI)
	case "corpus":
		cfg := corpus.WBFConfig()
		if *collection == "NYC" {
			cfg = corpus.NYCConfig()
		}
		if *tables > 0 {
			cfg.NumTables = *tables
		}
		c := corpus.Generate(cfg, *seed)
		for _, tb := range c.Tables {
			name := fmt.Sprintf("%s_d%d_t%03d.csv", cfg.Name, tb.Domain, tb.ID)
			writeCSV(filepath.Join(*out, name), tb.T)
		}
		fmt.Printf("wrote %d tables of the %s stand-in to %s\n", len(c.Tables), cfg.Name, *out)
	case "cohort":
		// Candidate c goes to store c % shards under "bench/", so the
		// stores are disjoint and their union is the single-node corpus.
		// One pass feeds them all: every sketch comes off PlantedCohort's
		// single rng stream.
		n := *tables
		if n <= 0 {
			n = 1000
		}
		if *shards < 1 {
			flag.Usage()
			os.Exit(2)
		}
		stores := make([]*misketch.Store, *shards)
		for i := range stores {
			st, err := misketch.OpenStore(filepath.Join(*out, fmt.Sprintf("shard%d", i)))
			die(err)
			stores[i] = st
		}
		_, cands := synth.PlantedCohort(n)
		for c, sk := range cands {
			die(stores[c%*shards].Put(fmt.Sprintf("bench/t%04d#x", c), sk))
		}
		for _, st := range stores {
			die(st.Close())
		}
		fmt.Printf("wrote %d planted-cohort candidates into %d sketch store(s) under %s\n", n, *shards, *out)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
}

func writeCSV(path string, t *table.Table) {
	f, err := os.Create(path)
	die(err)
	die(t.WriteCSV(f))
	die(f.Close())
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}
