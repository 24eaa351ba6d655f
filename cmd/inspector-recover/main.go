// Command inspector-recover replays a write-ahead journal written by
// inspector-run -journal (or inspector.Options.Journal) and rebuilds
// the Concurrent Provenance Graph up to the last durable epoch.
//
// A journal from a crashed run usually ends in a torn record: a frame
// cut short mid-write, a half-written length prefix, or a corrupted
// payload. Recovery stops at the first bad CRC or short read, replays
// everything before it, and marks the result degraded with a
// truncated-tail gap — the recovered CPG says truthfully "complete up
// to epoch N, cut off after". A journal closed by a clean run carries a
// seal record and recovers complete.
//
// Usage:
//
//	inspector-recover -journal DIR [-epoch N] [-truncate]
//	                  [-cpg out.cpg] [-json out.json] [-dot out.dot]
//	                  [-analysis out.json] [-q]
//
// -epoch stops the replay at epoch N (a time-travel debugging aid; the
// result is not marked degraded — the cut was asked for). -truncate
// physically removes the torn tail so later tools read the journal
// cleanly. Exit status is 0 even when a tear was found — a recovered
// prefix is a success; only an unusable journal (no readable header,
// no directory) fails.
//
// -stream URL re-feeds the recovered epochs to a provenance aggregator
// (inspector-serve -ingest) under the journal's own run identity — the
// resume path after a streaming recorder died. The aggregator's dedup
// skips epochs it already holds, so replaying from epoch 1 is always
// safe; if the journal was sealed the stream is sealed too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/repro/inspector/internal/atomicio"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/provenance"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "inspector-recover:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspector-recover", flag.ContinueOnError)
	dir := fs.String("journal", "", "journal directory to recover (required)")
	epoch := fs.Uint64("epoch", 0, "stop the replay at this epoch (0 = replay everything durable)")
	truncate := fs.Bool("truncate", false, "physically remove the torn tail after recovery")
	cpgOut := fs.String("cpg", "", "write the recovered CPG in the columnar .cpg format (for cpg-query and inspector-serve) to this file")
	jsonOut := fs.String("json", "", "write the recovered CPG (JSON) to this file")
	dotOut := fs.String("dot", "", "write the recovered CPG (Graphviz DOT) to this file")
	analysisOut := fs.String("analysis", "", "write the recovered analysis (JSON: thread lens + edges) to this file")
	quiet := fs.Bool("q", false, "suppress the recovery summary")
	sumJSON := fs.Bool("summary-json", false, "print the recovery summary as one JSON object instead of human lines")
	streamURL := fs.String("stream", "", "re-feed the recovered epochs to a provenance aggregator (inspector-serve -ingest) at this base URL")
	streamID := fs.String("stream-id", "", "aggregator source name for -stream (default: the journal's run id)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -journal DIR")
	}

	rep, err := journal.Recover(*dir, journal.RecoverOptions{
		MaxEpoch:   *epoch,
		Truncate:   *truncate,
		KeepDeltas: *streamURL != "",
	})
	if err != nil {
		return err
	}

	if *sumJSON {
		s := summaryJSON{
			RunID:    rep.Header.RunID,
			App:      rep.Header.App,
			Threads:  rep.Header.Threads,
			Epoch:    rep.Epoch,
			Records:  rep.Records,
			Sealed:   rep.Sealed,
			Degraded: rep.Degraded(),
		}
		if rep.Torn != nil {
			s.Torn = rep.Torn.String()
		}
		enc := json.NewEncoder(out)
		if err := enc.Encode(s); err != nil {
			return err
		}
		*quiet = true
	}
	if !*quiet {
		fmt.Fprintf(out, "run:              %s (%s, %d threads)\n",
			rep.Header.RunID, appOrUnknown(rep.Header.App), rep.Header.Threads)
		fmt.Fprintf(out, "recovered:        %d epochs from %d segments\n", rep.Epoch, len(rep.Segments))
		switch {
		case rep.Sealed:
			fmt.Fprintln(out, "journal:          sealed (clean close)")
		case rep.Stopped:
			fmt.Fprintf(out, "journal:          stopped at -epoch %d by request\n", rep.Epoch)
		case rep.Torn != nil:
			fmt.Fprintf(out, "journal:          torn tail at %s\n", rep.Torn)
			if *truncate {
				fmt.Fprintln(out, "journal:          torn tail truncated")
			}
		default:
			fmt.Fprintln(out, "journal:          unsealed (run did not close cleanly)")
		}
		comp := rep.Analysis.Completeness()
		if comp.Complete {
			fmt.Fprintln(out, "completeness:     complete")
		} else {
			fmt.Fprintf(out, "completeness:     degraded (%d gap intervals on %d threads)\n",
				comp.GapIntervals, comp.GapThreads)
		}
	}

	if *cpgOut != "" {
		meta := cpgfile.Meta{RunID: rep.Header.RunID, App: rep.Header.App}
		enc := func(w io.Writer) error { return cpgfile.Encode(w, rep.Analysis, meta) }
		if err := write(out, *cpgOut, "CPG", *quiet, enc); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := write(out, *jsonOut, "JSON", *quiet, rep.Graph.EncodeJSON); err != nil {
			return err
		}
	}
	if *dotOut != "" {
		if err := write(out, *dotOut, "DOT", *quiet, rep.Graph.WriteDOT); err != nil {
			return err
		}
	}
	if *analysisOut != "" {
		if err := write(out, *analysisOut, "analysis", *quiet, rep.Analysis.ExportJSON); err != nil {
			return err
		}
	}
	if *streamURL != "" {
		st, err := restream(rep, *streamURL, *streamID)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if !*quiet {
			fmt.Fprintf(out, "stream:           aggregator at epoch %d (%d replayed, %d already held, sealed=%v)\n",
				st.NextEpoch-1, st.Accepted, st.Duplicates, st.Sealed)
		}
	}
	return nil
}

// restream re-feeds the recovered delta sequence under the journal's
// run identity. Replaying from epoch 1 is deliberate: the aggregator's
// dedup acknowledges everything it already applied, so the upload is
// correct whether the earlier stream died at epoch 0 or one short of
// the end.
func restream(rep *journal.Recovery, url, source string) (*provenance.IngestStatus, error) {
	if source == "" {
		source = rep.Header.RunID
	}
	c := &provenance.Client{BaseURL: url, MaxRetries: 8}
	hello := wire.Hello{RunID: rep.Header.RunID, App: rep.Header.App, Threads: rep.Header.Threads}
	var seal *wire.Seal
	if rep.Sealed && !rep.Stopped {
		seal = &wire.Seal{FinalEpoch: rep.Epoch}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	return provenance.UploadDeltas(ctx, c, source, hello, rep.Deltas, 0, seal)
}

func appOrUnknown(app string) string {
	if app == "" {
		return "unnamed app"
	}
	return app
}

// write exports one artifact crash-atomically — recovery must never
// replace a good artifact with a torn one, least of all while cleaning
// up after a crash.
func write(out io.Writer, path, what string, quiet bool, enc func(io.Writer) error) error {
	if err := atomicio.WriteFile(path, enc); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(out, "wrote %-12s %s\n", what+":", path)
	}
	return nil
}

// summaryJSON is the -summary-json shape scripts parse instead of the
// human lines.
type summaryJSON struct {
	RunID    string `json:"run_id"`
	App      string `json:"app,omitempty"`
	Threads  int    `json:"threads"`
	Epoch    uint64 `json:"epoch"`
	Records  int    `json:"records"`
	Sealed   bool   `json:"sealed"`
	Degraded bool   `json:"degraded"`
	Torn     string `json:"torn,omitempty"`
}
