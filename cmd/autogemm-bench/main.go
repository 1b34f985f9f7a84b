// Command autogemm-bench regenerates the paper's tables and figures on
// the simulated chips:
//
//	autogemm-bench -list
//	autogemm-bench -exp table1
//	autogemm-bench -exp fig5,fig6 -out results/
//	autogemm-bench -exp fig11-replay,qos-replay   # real schedules replayed in virtual time
//	autogemm-bench -exp all
//
// The wall-clock benchmark of the execution engine is the separate
// bench module (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autogemm/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	exp := flag.String("exp", "", "comma-separated experiment ids, or 'all'")
	outDir := flag.String("out", "", "also write each table as <dir>/<id>.csv")
	flag.Parse()

	reg := experiments.Registry()
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		tbl, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(tbl.String())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := *outDir + "/" + id + ".csv"
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
