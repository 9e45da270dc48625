// Command replaydb inspects a ReplayDB write-ahead log.
//
//	replaydb -db replay.wal stats            # record counts and device mix
//	replaydb -db replay.wal tail [-n 10]     # most recent accesses
//	replaydb -db replay.wal movements        # layout-change history
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"geomancy/internal/replaydb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replaydb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "ReplayDB WAL path")
	n := fs.Int("n", 10, "records to show for tail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cmd := "stats"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
		// Parsing stops at the sub-command; its flags (tail -n 5) follow it.
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	if *dbPath == "" {
		fmt.Fprintln(stderr, "replaydb: -db is required")
		return 2
	}
	db, err := replaydb.Open(replaydb.Options{Path: *dbPath})
	if err != nil {
		fmt.Fprintf(stderr, "replaydb: %v\n", err)
		return 1
	}
	defer db.Close()

	switch cmd {
	case "stats":
		stats(stdout, db)
	case "tail":
		tail(stdout, db, *n)
	case "movements":
		movements(stdout, db)
	default:
		fmt.Fprintf(stderr, "replaydb: unknown command %q (want stats, tail or movements)\n", cmd)
		return 2
	}
	return 0
}

func stats(w io.Writer, db *replaydb.DB) {
	fmt.Fprintf(w, "access records:   %d\n", db.Len())
	fmt.Fprintf(w, "movement records: %d\n", db.MovementCount())
	for _, s := range db.Summary() {
		fmt.Fprintf(w, "  %-8s %7d accesses, %.2f ± %.2f GB/s, %.1f GB served, t=[%.1f, %.1f]\n",
			s.Device, s.Accesses, s.MeanThroughput/1e9, s.StdThroughput/1e9,
			float64(s.Bytes)/1e9, s.FirstTime, s.LastTime)
	}
}

func tail(w io.Writer, db *replaydb.DB, n int) {
	for _, r := range db.Recent(n) {
		fmt.Fprintf(w, "#%-6d t=%.3f wl=%d run=%d file=%d dev=%-8s rb=%d wb=%d tp=%.2f GB/s\n",
			r.Seq, r.Time, r.Workload, r.Run, r.FileID, r.Device, r.BytesRead, r.BytesWritten, r.Throughput/1e9)
	}
}

func movements(w io.Writer, db *replaydb.DB) {
	for _, m := range db.Movements() {
		fmt.Fprintf(w, "#%-6d t=%.3f file=%d %s -> %s (%d bytes in %.3fs, at access %d)\n",
			m.Seq, m.Time, m.FileID, m.From, m.To, m.Bytes, m.Duration, m.AccessIndex)
	}
}
