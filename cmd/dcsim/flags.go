package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/pkg/dcsim"
)

// kvFlag collects a repeatable key=value flag (-wopt cache_mb=64 -wopt
// retries=2).
type kvFlag []string

// String implements flag.Value.
func (f *kvFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value.
func (f *kvFlag) Set(s string) error {
	*f = append(*f, s)
	return nil
}

// applyWorkloadOptions parses each key=value pair onto the workload's
// kind-scoped options. Which keys are legal is the selected backend's
// call — validation rejects unread keys later — but the pair shape is
// checked here so a dropped "=" fails at the flag, not as a weird key.
func applyWorkloadOptions(w *dcsim.Workload, pairs []string) error {
	for _, kv := range pairs {
		key, value, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return fmt.Errorf("-wopt needs key=value, got %q", kv)
		}
		w.SetOption(key, value)
	}
	return nil
}

// applyRecording points the workload at a recording from -tracedir or
// -objstore, the two mutually exclusive recording locations. Either one
// sets the path and implies its kind ("trace-dir" or "trace-obj") unless
// kindChosen (an explicit -workload) or the scenario already names a
// non-default kind, so spelling out the default "datacenter" behaves like
// omitting it.
func applyRecording(w *dcsim.Workload, tracedir, objstore string, kindChosen bool) error {
	if tracedir != "" && objstore != "" {
		return errors.New("-tracedir and -objstore are mutually exclusive (one recording location)")
	}
	path, kind := tracedir, "trace-dir"
	if objstore != "" {
		path, kind = objstore, "trace-obj"
	}
	if path == "" {
		return nil
	}
	w.Path = path
	if def := dcsim.DefaultScenario().Workload.Kind; !kindChosen && (w.Kind == "" || w.Kind == def) {
		w.Kind = kind
	}
	return nil
}
