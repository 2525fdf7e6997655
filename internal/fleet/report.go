package fleet

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/server"
)

// Report prints the fleet timeline and summary, Figure 9-style but
// fleet-wide: per-minute fleet RPS, capacity during deploys, worst
// degradation level, and aggregator staleness, followed by per-host
// warmup curves and restart records.
func Report(w io.Writer, r *Result) {
	fmt.Fprintf(w, "fleet: %d hosts, steady %.0f req/min (host shares ", r.Hosts, r.FleetSteadyRPS)
	for i, s := range r.HostSteadyRPS {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%.0f", s)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "traffic: %d requests from %d unique users (population %d)\n",
		r.Requests, r.UniqueUsers, r.Users)

	fmt.Fprintln(w, "\n min | offered |  served |  fleet% |  cap% | up | deg | stale | bklog | shed | lost")
	fmt.Fprintln(w, "-----+---------+---------+---------+-------+----+-----+-------+-------+------+-----")
	for _, s := range r.Samples {
		fmt.Fprintf(w, " %3.0f | %7.0f | %7.0f | %6.1f%% | %4.0f%% | %2d |  %d  | %5.0f | %5.0f | %4.0f | %4.0f\n",
			s.Minute, s.OfferedRPS, s.ServedRPS, s.FleetRPSPct, s.CapacityPct,
			s.HostsUp, s.MaxDegrade, s.AggStalenessMin, s.Backlog, s.ShedRPS, s.LostRPS)
	}

	fmt.Fprintln(w, "\nper-host warmup curves (% of host steady RPS; . = down, X = dead):")
	fmt.Fprint(w, " min |")
	for i := range r.HostTimelines {
		fmt.Fprintf(w, " h%-3d|", i)
	}
	fmt.Fprintln(w)
	for m := 0; m < len(r.Samples); m++ {
		fmt.Fprintf(w, " %3d |", m+1)
		for _, tl := range r.HostTimelines {
			cell := "  . "
			if m < len(tl) {
				hs := tl[m]
				if hs.Up {
					cell = fmt.Sprintf("%4.0f", hs.RPSPct)
				} else if strings.Contains(hs.Event, "X") {
					cell = "  X "
				}
				if ev := hs.Event; ev != "" {
					cell += ev
				}
			}
			fmt.Fprintf(w, "%-5s|", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "events: J=warm jumpstart C=optimized R=restarting U=rejoined S=shed V=recovered X=died D=divergence demotion")

	if len(r.Restarts) > 0 {
		fmt.Fprintln(w, "\nrestarts:")
		for _, rec := range r.Restarts {
			mode := "cold"
			detail := ""
			if rec.Warm {
				mode = "warm"
				detail = fmt.Sprintf(" (%d trans, staleness %.0f min)", rec.LoadedTrans, rec.StalenessMin)
			}
			fmt.Fprintf(w, "  host %d down @%d up @%d %s%s: to-90%% %s\n",
				rec.Host, rec.DownMinute, rec.UpMinute, mode, detail, fmtTo90(rec.MinutesTo90))
		}
	}

	a := r.Aggregator
	fmt.Fprintf(w, "\naggregator: %d publishes, %d merge rounds (%d snapshots folded), %d pulls, aggregate %d funcs / %d trans\n",
		a.Publishes, a.MergeRounds, a.MergedSnapshots, a.Pulls, a.Funcs, a.Trans)
	fmt.Fprintf(w, "fleet to-90%%: %s   output mismatches vs single-host: %d   hosts died: %d   shed %.0f / lost %.0f reqs\n",
		fmtTo90(r.MinutesTo90), r.OutputMismatches, r.HostsDied, r.ShedRequests, r.LostRequests)
	fmt.Fprintf(w, "wall clock: %v\n", r.WallClock.Round(1e6))
}

func fmtTo90(m float64) string {
	if m == server.MinutesTo90Never {
		return "never"
	}
	return fmt.Sprintf("%.0f min", m)
}
