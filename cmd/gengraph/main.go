// Command gengraph generates synthetic DCSBM graphs — either a Table 1
// dataset of the paper or a custom parameterisation — and writes the
// edge list plus the ground-truth communities.
//
// Usage:
//
//	gengraph -table1 S5 -scale 0.01 -out s5.tsv -truth s5.truth
//	gengraph -vertices 5000 -communities 16 -ratio 4 -out custom.tsv
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gengraph: ")

	var (
		table1      = flag.String("table1", "", "generate a paper Table 1 graph (S1..S24)")
		scale       = flag.Float64("scale", 0.01, "scale of the published graph sizes (with -table1)")
		vertices    = flag.Int("vertices", 1000, "number of vertices (custom mode)")
		communities = flag.Int("communities", 8, "number of planted communities (custom mode)")
		minDeg      = flag.Int("min-degree", 1, "minimum degree (custom mode)")
		maxDeg      = flag.Int("max-degree", 100, "maximum degree (custom mode)")
		exponent    = flag.Float64("exponent", 2.5, "degree power-law exponent (custom mode)")
		ratio       = flag.Float64("ratio", 3, "within/between community edge ratio r (custom mode)")
		skew        = flag.Float64("size-skew", 0.5, "community size heterogeneity (custom mode)")
		seed        = flag.Uint64("seed", 1, "generator seed")
		outPath     = flag.String("out", "", "edge-list output path (default stdout)")
		truthPath   = flag.String("truth", "", "ground-truth output path ('vertex community' lines)")
		mtx         = flag.Bool("mtx", false, "write MatrixMarket format instead of an edge list")
	)
	flag.Parse()

	var spec gen.Spec
	if *table1 != "" {
		id := strings.TrimPrefix(strings.ToUpper(*table1), "S")
		n, err := strconv.Atoi(id)
		if err != nil {
			log.Fatalf("bad -table1 id %q", *table1)
		}
		spec, err = gen.TableOneSpec(n, *scale)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		spec = gen.Spec{
			Name: "custom", Vertices: *vertices, Communities: *communities,
			MinDegree: *minDeg, MaxDegree: *maxDeg, Exponent: *exponent,
			Ratio: *ratio, SizeSkew: *skew, Seed: *seed,
		}
	}

	g, truth, err := gen.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges, %d communities\n",
		spec.Name, g.NumVertices(), g.NumEdges(), spec.Communities)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if *mtx {
		err = graph.WriteMatrixMarket(out, g)
	} else {
		err = graph.WriteEdgeList(out, g)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *truthPath != "" {
		f, err := os.Create(*truthPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := errors.Join(blockmodel.WriteAssignment(f, truth), f.Close()); err != nil {
			log.Fatal(err)
		}
	}
}
