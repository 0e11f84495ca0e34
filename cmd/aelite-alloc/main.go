// Command aelite-alloc runs the design flow up to slot allocation for a
// use case: route every connection, size its TDM reservation from its
// requirements, allocate contention-free slots, and print the resulting
// tables, guarantees and link utilisation.
//
// Usage:
//
//	aelite-alloc -spec usecase.json [-cols 4 -rows 3 -nis 4] [flags]
//	aelite-alloc -random N [flags]        (N random connections instead)
//	aelite-alloc -scenario FAMILY -conns N [flags]   (generated workload)
//
// Flags:
//
//	-freq MHZ    network frequency (default 500)
//	-table N     slot-table size (default: search)
//	-mode M      synchronous | mesochronous | asynchronous
//	-alloc A     slot allocator: greedy | ripup (default greedy)
//	-scenario F  generated workload family: uniform | hotspot | transpose |
//	             multimedia | dataflow (see internal/scenario)
//	-conns N     connection count for -scenario
//	-tables      print every NI's slot table
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/routerless"
	"repro/internal/slots"
	"repro/internal/topology"
)

// tool names this command in every cli diagnostic.
const tool = "aelite-alloc"

func main() {
	var w cli.Workload
	flag.StringVar(&w.SpecPath, "spec", "", "use-case JSON (see internal/spec)")
	flag.IntVar(&w.Random, "random", 0, "generate this many random connections instead of loading a spec")
	flag.Int64Var(&w.Seed, "seed", 1, "seed for -random/-scenario")
	flag.IntVar(&w.Cols, "cols", 4, "mesh columns")
	flag.IntVar(&w.Rows, "rows", 3, "mesh rows")
	flag.IntVar(&w.NIs, "nis", 4, "NIs per router")
	flag.Float64Var(&w.FreqMHz, "freq", 500, "frequency in MHz")
	flag.IntVar(&w.TableSize, "table", 0, "TDM table size (0 = search)")
	mode := flag.String("mode", "synchronous", "clocking: synchronous|mesochronous|asynchronous")
	alloc := flag.String("alloc", "greedy", "slot allocator: greedy | ripup")
	flag.StringVar(&w.Scenario, "scenario", "", "generated workload family: uniform|hotspot|transpose|multimedia|dataflow")
	flag.IntVar(&w.Conns, "conns", 0, "connection count for -scenario")
	printTables := flag.Bool("tables", false, "print per-NI slot tables")
	backendF := flag.String("backend", "aelite", "aelite | routerless (ring/slot allocation instead of TDM tables)")
	flag.Parse()

	// Malformed invocations are rejected up front with one-line
	// diagnostics and exit code 2, matching aelite-sim's contract.
	if err := w.Validate(); err != nil {
		os.Exit(cli.Usage(tool, err))
	}
	if w.TableSize < 0 {
		os.Exit(cli.Usage(tool, fmt.Errorf("-table %d must not be negative (0 = search)", w.TableSize)))
	}
	if _, err := slots.ByName(*alloc); err != nil {
		os.Exit(cli.Usage(tool, fmt.Errorf("-alloc: %w", err)))
	}
	clocking, err := core.ParseMode(*mode)
	if err != nil {
		os.Exit(cli.Usage(tool, err))
	}
	switch *backendF {
	case "aelite", "routerless":
	default:
		// Allocation inspection exists for slot-scheduled fabrics; the
		// best-effort baseline has no reservations to print.
		os.Exit(cli.Usage(tool, fmt.Errorf("unknown backend %q (aelite | routerless)", *backendF)))
	}
	if *backendF == "routerless" && clocking != core.Synchronous {
		os.Exit(cli.Usage(tool, fmt.Errorf("-backend routerless is single-clock; -mode %s needs the aelite backend", *mode)))
	}

	m, uc, err := w.Build()
	fatal(err)

	// Both builders pick the header layout and word width from the mesh.
	if *backendF == "routerless" {
		n, err := routerless.Build(m, uc, routerless.Config{FreqMHz: w.FreqMHz})
		fatal(err)
		fmt.Printf("use case %q: %d IPs, %d connections on a %dx%d mesh (%d NIs/router)\n",
			uc.Name, len(uc.IPs), len(uc.Connections), w.Cols, w.Rows, w.NIs)
		fmt.Printf("routerless ring overlay, %.0f MHz, %d rings\n\n", w.FreqMHz, n.Rings())
		fmt.Printf("%6s %9s %9s %9s %6s %5s\n", "conn", "reqMB/s", "gntMB/s", "boundNs", "slots", "hops")
		for _, c := range uc.Connections {
			info, err := n.Info(c.ID)
			fatal(err)
			fmt.Printf("%6d %9.1f %9.1f %9.1f %6d %5d\n",
				c.ID, c.BandwidthMBps, info.GuaranteedMBps, info.BoundNs,
				len(info.Slots), info.PathHops)
		}
		fmt.Println("\nring occupancy:")
		n.WriteRings(os.Stdout)
		return
	}

	cfg := core.Config{FreqMHz: w.FreqMHz, TableSize: w.TableSize, Allocator: *alloc, Mode: clocking}
	core.PrepareTopology(m, cfg)
	n, err := core.Build(m, uc, cfg)
	fatal(err)

	fmt.Printf("use case %q: %d IPs, %d connections on a %dx%d mesh (%d NIs/router)\n",
		uc.Name, len(uc.IPs), len(uc.Connections), w.Cols, w.Rows, w.NIs)
	fmt.Printf("mode %s, %.0f MHz, slot table %d, allocator %s\n\n", cfg.Mode, w.FreqMHz, n.Cfg.TableSize, *alloc)

	fmt.Printf("%6s %9s %9s %9s %6s %5s %8s\n", "conn", "reqMB/s", "gntMB/s", "boundNs", "slots", "hops", "recvCap")
	for _, c := range uc.Connections {
		info, err := n.Info(c.ID)
		fatal(err)
		fmt.Printf("%6d %9.1f %9.1f %9.1f %6d %5d %8d\n",
			c.ID, c.BandwidthMBps, info.GuaranteedMBps, info.BoundNs,
			len(info.Slots), info.PathHops, info.RecvCapacity)
	}

	// Link utilisation summary.
	type lu struct {
		id   topology.LinkID
		util float64
	}
	var lus []lu
	for _, l := range m.Links() {
		lus = append(lus, lu{l.ID, n.Alloc.LinkUtilisation(l.ID)})
	}
	sort.Slice(lus, func(i, j int) bool { return lus[i].util > lus[j].util })
	fmt.Println("\nbusiest links:")
	for i := 0; i < 10 && i < len(lus); i++ {
		l := m.Link(lus[i].id)
		fmt.Printf("  %-24s %5.1f%%\n",
			m.Node(l.From).Name+" > "+m.Node(l.To).Name, lus[i].util*100)
	}

	if *printTables {
		fmt.Println("\nNI slot tables:")
		for _, id := range m.AllNIs() {
			t := n.Alloc.NITable(id)
			fmt.Printf("  %-10s %v\n", m.Node(id).Name, t.Slots)
		}
	}
}

func fatal(err error) {
	if err != nil {
		os.Exit(cli.Failure(tool, err))
	}
}
