package main

import (
	"flag"
	"io"
	"os"

	"repro/internal/telemetry"
)

// traceCmd converts the JSONL search traces written by the -trace
// flag into Chrome's trace_event JSON format, ready to load in
// chrome://tracing or https://ui.perfetto.dev. The JSONL schema (one
// Record per line: begin/end spans, instants, counter samples) is
// documented in docs/observability.md. It reads stdin and writes
// stdout when -in and -out are omitted:
//
//	c11 explore -trace /dev/stdout ... | c11 trace > search.json
func traceCmd(fs *flag.FlagSet, _ *session) func() int {
	var (
		in  = fs.String("in", "", "JSONL trace to read (default stdin)")
		out = fs.String("out", "", "Chrome trace_event JSON to write (default stdout)")
	)
	return func() int {
		var r io.Reader = os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			r = f
		}
		if *out == "" {
			if err := telemetry.ConvertChrome(r, os.Stdout); err != nil {
				return fail(err)
			}
			return exitProved
		}
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		err = telemetry.ConvertChrome(r, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		return exitProved
	}
}
