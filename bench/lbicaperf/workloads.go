package main

import (
	"fmt"
	"strings"

	"lbica/internal/sweep"
)

// benchWorkload is one benchmark workload: a sweep grid executed as a closed
// batch — one process, one worker, cells back to back.
type benchWorkload struct {
	name string
	grid sweep.Grid
	// warm runs every rep as two passes over one fresh checkpoint store: a
	// cold pass that simulates and publishes the shared warmup prefixes, and
	// a hit pass that restores them.
	warm bool
}

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"paper-read", "burst-write", "array-skew", "sweep-warm"}

// golden holds each workload's full-size seed-1 output digest: the sha256 of
// sweep.WriteJSON over the executed grid. A change that alters the simulated
// model changes it; a change that only speeds the simulator up must not.
var golden = map[string]string{
	"paper-read":  "e5e58856f990005cf6c07ed828d05d0e4c38e809bcf2ba495b26f54347ed3946",
	"burst-write": "572e3daf3c0362b0042e847756de0259e1fda97c6b142310e41d743ea8847b74",
	"array-skew":  "ecd313bebba489f9bceed8c361334891c988f60d46fd65fdf35592eb78d76d82",
	"sweep-warm":  "09de7425523f7d9796d8a5ba666be6e7a9808abbc08ee691e67956cf303062d2",
}

// lookupWorkload returns the named workload's grid for seed. intervals
// overrides the paper's run length (0 keeps it: 200 intervals, 175 for web).
func lookupWorkload(name string, seed int64, intervals int) (benchWorkload, error) {
	w := benchWorkload{name: name, grid: sweep.Grid{Seed: seed, Intervals: intervals}}
	g := &w.grid
	switch name {
	case "paper-read":
		g.Workloads = []string{"tpcc", "web"}
		g.Schemes = []string{"wb", "sib", "lbica"}
	case "burst-write":
		g.Workloads = []string{"mail", "burst-mix-hi"}
		g.Schemes = []string{"wb", "lbica"}
		g.CacheMults = []float64{0.5}
	case "array-skew":
		g.Workloads = []string{"tpcc"}
		g.Schemes = []string{"lbica", "array-lb"}
		g.Volumes = []int{8}
		g.RouteSkews = []float64{1.2}
	case "sweep-warm":
		g.Workloads = []string{"tpcc", "mail"}
		g.Schemes = []string{"wb", "lbica", "array-lb"}
		// Three quarters of each run is the shared prefix: 150 of the
		// paper's 200 intervals.
		iv := intervals
		if iv == 0 {
			iv = 200
		}
		g.WarmupIntervals = max(1, iv*3/4)
		w.warm = true
	default:
		return w, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, "|"))
	}
	return w, g.Validate()
}
