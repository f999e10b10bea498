// Command datagen generates the repository's synthetic datasets and
// writes them as .sjar array files usable by cmd/shufflejoin.
//
// Usage:
//
//	datagen -kind ais   -name Broadcast -cells 110000 -out data/
//	datagen -kind modis -name Band1     -cells 170000 -out data/
//	datagen -kind zipf  -name A -cells 4000000 -alpha 1.0 -grid 32 -out data/
//	datagen -kind pair  -cells 40000 -sel 0.1 -out data/   (writes A and B)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"shufflejoin/internal/array"
	"shufflejoin/internal/storage"
	"shufflejoin/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// process exit status (0 ok, 1 generation or write failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind  = fs.String("kind", "", "dataset kind: ais, modis, zipf, pair")
		name  = fs.String("name", "", "array name (defaults per kind)")
		cells = fs.Int64("cells", 100_000, "occupied cells to generate")
		seed  = fs.Int64("seed", 1, "deterministic seed")
		alpha = fs.Float64("alpha", 1.0, "Zipf skew for -kind zipf")
		grid  = fs.Int64("grid", 32, "chunks per dimension for -kind zipf")
		sel   = fs.Float64("sel", 1.0, "join selectivity for -kind pair")
		out   = fs.String("out", "data", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var arrays []*array.Array
	var err error
	switch *kind {
	case "ais":
		arrays = append(arrays, workload.AISLike(orDefault(*name, "Broadcast"), workload.GeoConfig{Cells: *cells, Seed: *seed}))
	case "modis":
		arrays = append(arrays, workload.MODISLike(orDefault(*name, "Band1"), workload.GeoConfig{Cells: *cells, Seed: *seed}))
	case "zipf":
		rng := rand.New(rand.NewSource(*seed))
		sizes := workload.ZipfUnitSizes(int(*grid**grid), *alpha, *cells, rng)
		side := *grid * 200 // 200 logical coordinates per chunk per dim
		var a *array.Array
		a, err = workload.Grid2D(orDefault(*name, "A"), side, 200, sizes, *seed)
		arrays = append(arrays, a)
	case "pair":
		var a, b *array.Array
		a, b, err = workload.SelectivityPair(*cells, *cells, 32, *sel, *seed)
		arrays = append(arrays, a, b)
	default:
		fmt.Fprintln(stderr, "datagen: -kind must be one of ais, modis, zipf, pair")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}

	store, err := storage.NewStore(*out)
	if err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	for _, a := range arrays {
		if err := store.Save(a); err != nil {
			fmt.Fprintln(stderr, "datagen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s: %s (%d cells, %d chunks, ~%d bytes)\n",
			a.Schema.Name, a.Schema, a.CellCount(), a.ChunkCount(), a.StoredBytes())
	}
	return 0
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
