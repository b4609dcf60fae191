// Command experiments regenerates the paper-reproduction tables recorded in
// EXPERIMENTS.md: every theorem bound (E1–E5), the Coan/PSL/Phase-Queen
// comparisons (E6, E7, E9), the fault-detection dynamics (E8), the
// discovery/masking ablation (E10), and the paper's figures (F1–F3).
//
// Usage:
//
//	experiments            # run everything, print markdown
//	experiments -id E5     # one experiment
//	experiments -list      # list ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shiftgears/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id   = fs.String("id", "", "run a single experiment (E1..E10, F1..F3)")
		list = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *id != "" {
		tab, err := experiments.RunByID(*id)
		if err != nil {
			return err
		}
		fmt.Fprint(out, tab.Markdown())
		return nil
	}

	for _, e := range experiments.All() {
		tab, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(out, tab.Markdown())
	}
	return nil
}
