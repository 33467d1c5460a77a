// Command graphstat reads an edge list as written by cmd/kagen and prints
// summary statistics, a degree histogram and — when requested — a
// power-law exponent estimate. The input is a path, a file:// or s3://
// URI, or - for stdin, in any streaming format (text, binary, text.gz,
// binary.gz).
//
// Usage:
//
//	graphstat [-format text|binary|text.gz|binary.gz] [-histogram] [-powerlaw dmin] file
package main

import (
	"flag"
	"fmt"
	"os"

	kagen "repro"
)

func main() {
	var (
		informat  = flag.String("format", "text", "input format: text, binary, text.gz, binary.gz")
		histogram = flag.Bool("histogram", false, "print the degree histogram")
		powerlaw  = flag.Uint64("powerlaw", 0, "estimate the power-law exponent with this dmin (0 = off)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: graphstat [flags] file")
		os.Exit(2)
	}
	format, err := kagen.ParseFormat(*informat)
	if err != nil {
		fatal(err)
	}
	el, err := kagen.ReadEdgeListFrom(flag.Arg(0), format)
	if err != nil {
		fatal(err)
	}

	s := kagen.ComputeStats(el)
	fmt.Printf("vertices      %d\n", s.N)
	fmt.Printf("edges         %d\n", s.M)
	fmt.Printf("avg degree    %.3f\n", s.AvgDegree)
	fmt.Printf("min degree    %d\n", s.MinDegree)
	fmt.Printf("max degree    %d\n", s.MaxDegree)
	fmt.Printf("components    %d\n", s.Components)
	fmt.Printf("self loops    %d\n", s.SelfLoops)

	if *powerlaw > 0 {
		gamma := kagen.PowerLawExponentMLE(kagen.OutDegrees(el), *powerlaw)
		fmt.Printf("powerlaw MLE  %.3f (dmin=%d)\n", gamma, *powerlaw)
	}
	if *histogram {
		hist := kagen.DegreeHistogram(el)
		fmt.Println("degree histogram:")
		for d, c := range hist {
			if c > 0 {
				fmt.Printf("  %6d %d\n", d, c)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphstat:", err)
	os.Exit(1)
}
