// Command ckptinfo inspects the monitor checkpoints lclsmon writes —
// lclsmon.ckpt, and a tenant registry's tenant-<id>.ckpt — as one row
// per checkpoint: frame version, frames ingested, window occupancy,
// shard count, audit and journal counts, and the sketch's error-bound
// certificate composed across its shards (rows seen, accumulated
// shrinkage mass, the covariance and relative bounds), so "how accurate
// was the sketch at this checkpoint" is answerable offline.
//
// Usage:
//
//	ckptinfo ckpt/lclsmon.ckpt tenants/   # a table, one row per checkpoint
//	ckptinfo -json tenants/               # the same rows as a JSON array
//
// A directory argument stands for its *.ckpt files in name order. A
// tenant-<id>.ckpt row is named <id>, any other by its path. A file
// that cannot be read, fails its checksum, or holds anything but a
// monitor state gets an error row, and the exit status is non-zero, so
// the tool can gate a restore in a restart script.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/pipeline"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it prints the rows of the checkpoints args
// name to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ckptinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print the rows as a JSON array instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ckptinfo [-json] <checkpoint-file-or-dir> [...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	rows := []row{}
	bad := 0
	for _, path := range expand(fs.Args()) {
		r := readRow(path)
		if r.Err != "" {
			bad++
		}
		rows = append(rows, r)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(stderr, "ckptinfo:", err)
			return 1
		}
	} else {
		writeTable(stdout, rows)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "ckptinfo: %d of %d checkpoints failed\n", bad, len(rows))
		return 1
	}
	return 0
}

// expand replaces each directory argument with its *.ckpt files.
func expand(args []string) []string {
	var paths []string
	for _, arg := range args {
		if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
			names, _ := filepath.Glob(filepath.Join(arg, "*.ckpt"))
			paths = append(paths, names...)
			continue
		}
		paths = append(paths, arg)
	}
	return paths
}

// row is one checkpoint, printed as a table line or a JSON element.
type row struct {
	Name          string `json:"name"`
	Path          string `json:"path"`
	Bytes         int    `json:"bytes"`
	Version       uint32 `json:"version"`
	Ingests       int    `json:"ingests"`
	Window        int    `json:"window_frames"`
	Shards        int    `json:"shards"`
	AuditBatches  int64  `json:"audit_batches"`
	AuditAlarms   int64  `json:"audit_alarms"`
	JournalSeq    int64  `json:"journal_seq"`
	JournalEvents int    `json:"journal_events"`

	Certificate *cert  `json:"certificate,omitempty"`
	Err         string `json:"error,omitempty"`
}

// cert is an audit.Certificate with its bounds spelled out.
type cert struct {
	Ell          int     `json:"ell"`
	Dim          int     `json:"dim"`
	RowsSeen     int     `json:"rows_seen"`
	Rotations    int     `json:"rotations"`
	ShrinkMass   float64 `json:"shrink_mass"`
	FrobMass     float64 `json:"frob_mass"`
	CovBound     float64 `json:"cov_bound"`
	RelBound     float64 `json:"rel_bound"`
	AprioriBound float64 `json:"apriori_bound"`
}

func certOf(c audit.Certificate) *cert {
	return &cert{
		Ell: c.Ell, Dim: c.Dim, RowsSeen: c.Rows, Rotations: c.Rotations,
		ShrinkMass: c.ShrinkMass, FrobMass: c.FrobMass, CovBound: c.CovBound(),
		RelBound: c.RelBound(), AprioriBound: c.AprioriBound(),
	}
}

// readRow decodes one checkpoint into its row; a failure is the row's
// Err, with whatever was read before it.
func readRow(path string) row {
	r := row{Name: path, Path: path}
	if base := filepath.Base(path); strings.HasPrefix(base, "tenant-") && strings.HasSuffix(base, ".ckpt") {
		r.Name = strings.TrimSuffix(strings.TrimPrefix(base, "tenant-"), ".ckpt")
	}
	if err := r.fill(path); err != nil {
		r.Err = err.Error()
	}
	return r
}

func (r *row) fill(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r.Bytes = len(b)
	h, err := ckpt.Peek(b)
	r.Version = h.Version
	if err != nil {
		return err
	}
	state, err := ckpt.Unmarshal(b)
	if err != nil {
		return err
	}
	ms, ok := state.(*pipeline.MonitorState)
	if !ok {
		return fmt.Errorf("is a %v checkpoint, not a monitor state", h.Kind)
	}
	r.Ingests = ms.Ingests
	r.Window = len(ms.Frames)
	for _, ss := range ms.Shards {
		if ss != nil {
			r.Shards++
		}
	}
	if ms.Audit != nil {
		r.AuditBatches, r.AuditAlarms = ms.Audit.Batches, ms.Audit.Alarms
	}
	if ms.Journal != nil {
		r.JournalSeq, r.JournalEvents = ms.Journal.Seq, len(ms.Journal.Events)
	}
	// Composed additively across the shards: the bound the live engine
	// reports for the same shards, and the one a tenant journals at
	// hibernation. None before the first row.
	if c := ms.Certificate(); c.Rows > 0 {
		r.Certificate = certOf(c)
	}
	return nil
}

func writeTable(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tVERSION\tFRAMES\tWINDOW\tSHARDS\tROWS\tCOV BOUND\tREL BOUND\tAUDITED\tALARMS\tJOURNAL\tBYTES")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(tw, "%s\terror: %s\n", r.Name, r.Err)
			continue
		}
		rowsSeen, cov, rel := 0, "-", "-"
		if c := r.Certificate; c != nil {
			rowsSeen, cov, rel = c.RowsSeen, fmt.Sprintf("%.6g", c.CovBound), fmt.Sprintf("%.6g", c.RelBound)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n",
			r.Name, r.Version, r.Ingests, r.Window, r.Shards, rowsSeen, cov, rel,
			r.AuditBatches, r.AuditAlarms, r.JournalSeq, r.Bytes)
	}
	tw.Flush()
}
