// Command ckptinfo inspects ARAMS checkpoint files: it prints the
// frame header (version, kind, payload size, checksum verdict) and a
// per-kind summary of the decoded state — the operator's first stop
// when deciding whether a checkpoint is safe to restore from. The
// summary includes the sketch's error-bound certificate (accumulated
// shrinkage mass and the relative covariance bound), so "how accurate
// was the sketch at this checkpoint" is answerable offline.
//
// Usage:
//
//	ckptinfo ckpt/lclsmon.ckpt [more.ckpt ...]
//	ckptinfo -json ckpt/lclsmon.ckpt   # machine-readable, one JSON object per file
//	ckptinfo -dir tenants/             # one-line-per-tenant table of hibernated checkpoints
//
// With -dir the arguments are directories holding a multi-tenant
// registry's hibernation files (tenant-<id>.ckpt): every tenant is
// summarized on one table row — frame count, window occupancy, shard
// count, and the aggregate error-bound certificate composed across its
// shards — so "who is asleep here and how accurate were they" is one
// command. -json combines with -dir for a JSON array.
//
// Exit status is non-zero if any file fails to decode, so the tool can
// gate a restore in a restart script.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per file instead of text")
	dirMode := flag.Bool("dir", false, "treat arguments as hibernation directories; summarize tenant-*.ckpt files as a table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] <checkpoint-file> [...]\n", os.Args[0])
		fmt.Fprintf(os.Stderr, "       %s [-json] -dir <hibernation-dir> [...]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	bad := 0
	if *dirMode {
		for _, dir := range flag.Args() {
			if err := describeDir(dir, *jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", dir, err)
				bad++
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	for _, path := range flag.Args() {
		var err error
		if *jsonOut {
			err = describeJSON(path)
		} else {
			err = describe(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			bad++
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// describe prints one file's header and state summary. Header problems
// (bad magic, checksum mismatch, truncation) are reported with as much
// of the header as could be read before the error is returned.
func describe(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes\n", path, len(b))
	h, err := ckpt.Peek(b)
	if err != nil {
		return err
	}
	fmt.Printf("  frame:    version %d, kind %s, payload %d bytes, checksum ok\n",
		h.Version, h.Kind, h.PayloadLen)
	state, err := ckpt.Unmarshal(b)
	if err != nil {
		return err
	}
	describeState(state, "  ")
	return nil
}

func describeState(state any, indent string) {
	switch s := state.(type) {
	case *sketch.FDState:
		describeFD(s, indent)
	case *sketch.RankAdaptiveState:
		describeRankAdaptive(s, indent)
	case *sketch.ARAMSState:
		describeARAMS(s, indent)
	case *pipeline.MonitorState:
		fmt.Printf("%smonitor:  %d frames ingested, window %d holding %d frames\n",
			indent, s.Ingests, s.Window, len(s.Frames))
		populated := 0
		for _, ss := range s.Shards {
			if ss != nil {
				populated++
			}
		}
		if populated == 0 {
			fmt.Printf("%ssketch:   none (nothing ingested yet)\n", indent)
		} else {
			if len(s.Shards) > 1 {
				fmt.Printf("%sshards:   %d slots, %d with sketch state\n",
					indent, len(s.Shards), populated)
			}
			for i, ss := range s.Shards {
				if ss == nil {
					continue
				}
				in := indent
				if len(s.Shards) > 1 {
					fmt.Printf("%sshard %d:\n", indent, i)
					in = indent + "  "
				}
				describeARAMS(ss, in)
			}
		}
		if s.Audit != nil {
			fmt.Printf("%saudit:    %d batches audited, %d alarms, detectors %s/%s\n",
				indent, s.Audit.Batches, s.Audit.Alarms,
				s.Audit.Residual.Kind, s.Audit.Accept.Kind)
		}
		if s.Journal != nil {
			fmt.Printf("%sjournal:  seq %d, %d events retained\n",
				indent, s.Journal.Seq, len(s.Journal.Events))
		}
	default:
		fmt.Printf("%sstate:    %T (no summary available)\n", indent, s)
	}
}

func describeFD(s *sketch.FDState, indent string) {
	fmt.Printf("%ssketch:   frequent-directions ℓ=%d d=%d, %d/%d buffer rows, %d rotations, %d rows seen\n",
		indent, s.Ell, s.D, s.NextZero, 2*s.Ell, s.Rotations, s.Seen)
	fmt.Printf("%serror:    accumulated shrinkage Δ=%.6g (covariance bound ‖AᵀA−BᵀB‖₂ ≤ Δ)\n",
		indent, s.TotalDelta)
	if s.FrobMass > 0 {
		fmt.Printf("%s          stream energy ‖A‖_F²=%.6g, relative bound %.6g, a-priori %.6g\n",
			indent, s.FrobMass, s.TotalDelta/s.FrobMass, s.FrobMass/float64(s.Ell))
	}
}

func describeRankAdaptive(s *sketch.RankAdaptiveState, indent string) {
	describeFD(&s.FD, indent)
	fmt.Printf("%sadaptive: ν=%d ε=%g, %d rank grows, %d recent rows ringed\n",
		indent, s.Nu, s.Eps, s.Grows, len(s.Recent))
}

func describeARAMS(s *sketch.ARAMSState, indent string) {
	fmt.Printf("%sarams:    d=%d, β=%g (sampling %v)\n",
		indent, s.D, s.Cfg.Beta, s.Cfg.Beta < 1)
	switch {
	case s.RankAdaptive != nil:
		describeRankAdaptive(s.RankAdaptive, indent)
	case s.FD != nil:
		describeFD(s.FD, indent)
	}
}

// --- JSON output ---

// jsonCert is the certificate block of the JSON exposition: an
// audit.Certificate with its bounds spelled out.
type jsonCert struct {
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

type jsonInfo struct {
	Path       string `json:"path"`
	Bytes      int    `json:"bytes"`
	Version    uint32 `json:"version"`
	Kind       string `json:"kind"`
	PayloadLen uint64 `json:"payload_len"`
	ChecksumOK bool   `json:"checksum_ok"`

	Certificate *jsonCert `json:"certificate,omitempty"`
	RankGrows   *int      `json:"rank_grows,omitempty"`
	Beta        *float64  `json:"beta,omitempty"`

	MonitorIngests *int   `json:"monitor_ingests,omitempty"`
	MonitorWindow  *int   `json:"monitor_window,omitempty"`
	MonitorFrames  *int   `json:"monitor_frames,omitempty"`
	MonitorShards  *int   `json:"monitor_shards,omitempty"`
	AuditBatches   *int64 `json:"audit_batches,omitempty"`
	AuditAlarms    *int64 `json:"audit_alarms,omitempty"`
	JournalSeq     *int64 `json:"journal_seq,omitempty"`
	JournalEvents  *int   `json:"journal_events,omitempty"`
}

func jsonCertOf(c audit.Certificate) *jsonCert {
	return &jsonCert{
		Ell: c.Ell, Dim: c.Dim, RowsSeen: c.Rows, Rotations: c.Rotations,
		ShrinkMass: c.ShrinkMass, FrobMass: c.FrobMass, CovBound: c.CovBound(),
		RelBound: c.RelBound(), AprioriBound: c.AprioriBound(),
	}
}

// certOf is the certificate of a sketch's checkpointed FD ledger.
func certOf(s *sketch.FDState) *jsonCert {
	return jsonCertOf(audit.Certificate{
		Rows: s.Seen, Dim: s.D, Ell: s.Ell, Rotations: s.Rotations,
		ShrinkMass: s.TotalDelta, FrobMass: s.FrobMass,
	})
}

// describeJSON emits one machine-readable JSON object for the file on
// stdout.
func describeJSON(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, err := ckpt.Peek(b)
	if err != nil {
		return err
	}
	info := jsonInfo{
		Path: path, Bytes: len(b),
		Version: h.Version, Kind: h.Kind.String(),
		PayloadLen: h.PayloadLen, ChecksumOK: h.ChecksumOK,
	}
	state, err := ckpt.Unmarshal(b)
	if err != nil {
		return err
	}
	fillJSON(&info, state)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
}

func fillJSON(info *jsonInfo, state any) {
	intp := func(v int) *int { return &v }
	switch s := state.(type) {
	case *sketch.FDState:
		info.Certificate = certOf(s)
	case *sketch.RankAdaptiveState:
		info.Certificate = certOf(&s.FD)
		info.RankGrows = intp(s.Grows)
	case *sketch.ARAMSState:
		fillARAMS(info, s)
	case *pipeline.MonitorState:
		info.MonitorIngests = intp(s.Ingests)
		info.MonitorWindow = intp(s.Window)
		info.MonitorFrames = intp(len(s.Frames))
		if len(s.Shards) > 1 {
			info.MonitorShards = intp(len(s.Shards))
		}
		// Beta and rank growth are the first shard's (grow counts do not
		// aggregate across shards); the certificate composes additively
		// across them — the one -dir reports, and the one the live
		// engine reports for the same shards.
		live := 0
		for _, ss := range s.Shards {
			if ss != nil {
				if live == 0 {
					fillARAMS(info, ss)
				}
				live++
			}
		}
		if live > 1 {
			info.RankGrows = nil
		}
		info.Certificate = monitorCert(s)
		if s.Audit != nil {
			info.AuditBatches = &s.Audit.Batches
			info.AuditAlarms = &s.Audit.Alarms
		}
		if s.Journal != nil {
			info.JournalSeq = &s.Journal.Seq
			n := len(s.Journal.Events)
			info.JournalEvents = &n
		}
	}
}

// --- directory (multi-tenant hibernation) mode ---

// tenantRow is one hibernated tenant in the -dir summary.
type tenantRow struct {
	Tenant  string `json:"tenant"`
	Path    string `json:"path"`
	Bytes   int    `json:"bytes"`
	Ingests int    `json:"ingests"`
	Window  int    `json:"window_frames"`
	Shards  int    `json:"shards"`

	Certificate *jsonCert `json:"certificate,omitempty"`
	Err         string    `json:"error,omitempty"`
}

// describeDir summarizes every tenant-<id>.ckpt in dir, one row per
// tenant, sorted by tenant ID. Undecodable files get an error row and
// a non-zero exit, but never hide the healthy tenants.
func describeDir(dir string, jsonOut bool) error {
	names, err := filepath.Glob(filepath.Join(dir, "tenant-*.ckpt"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	rows := make([]tenantRow, 0, len(names))
	bad := 0
	for _, path := range names {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "tenant-"), ".ckpt")
		row := tenantRow{Tenant: id, Path: path}
		if err := fillTenantRow(&row, path); err != nil {
			row.Err = err.Error()
			bad++
		}
		rows = append(rows, row)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s: %d hibernated tenants\n", dir, len(rows))
		if len(rows) > 0 {
			tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  TENANT\tFRAMES\tWINDOW\tSHARDS\tROWS\tCOV BOUND\tREL BOUND\tBYTES")
			for _, row := range rows {
				if row.Err != "" {
					fmt.Fprintf(tw, "  %s\t-\t-\t-\t-\t%s\t\t\n", row.Tenant, row.Err)
					continue
				}
				cov, rel := "-", "-"
				rowsSeen := 0
				if c := row.Certificate; c != nil {
					cov = fmt.Sprintf("%.6g", c.CovBound)
					rel = fmt.Sprintf("%.6g", c.RelBound)
					rowsSeen = c.RowsSeen
				}
				fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%s\t%s\t%d\n",
					row.Tenant, row.Ingests, row.Window, row.Shards, rowsSeen, cov, rel, row.Bytes)
			}
			tw.Flush()
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d tenant checkpoints failed to decode", bad, len(rows))
	}
	return nil
}

// fillTenantRow decodes one hibernation file; the checkpoint must hold
// a monitor state (that is what the tenant registry writes).
func fillTenantRow(row *tenantRow, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	row.Bytes = len(b)
	state, err := ckpt.Unmarshal(b)
	if err != nil {
		return err
	}
	ms, ok := state.(*pipeline.MonitorState)
	if !ok {
		return fmt.Errorf("holds %T, not a monitor state", state)
	}
	row.Ingests = ms.Ingests
	row.Window = len(ms.Frames)
	for _, ss := range ms.Shards {
		if ss != nil {
			row.Shards++
		}
	}
	// The aggregate certificate composes additively across the tenant's
	// shards — the same bound the registry journals at hibernation.
	row.Certificate = monitorCert(ms)
	return nil
}

// monitorCert is a monitor checkpoint's certificate, composed across
// its shards (MonitorState.Certificate); nil before the first row.
func monitorCert(ms *pipeline.MonitorState) *jsonCert {
	if cert := ms.Certificate(); cert.Rows > 0 {
		return jsonCertOf(cert)
	}
	return nil
}

func fillARAMS(info *jsonInfo, s *sketch.ARAMSState) {
	info.Beta = &s.Cfg.Beta
	switch {
	case s.RankAdaptive != nil:
		info.Certificate = certOf(&s.RankAdaptive.FD)
		g := s.RankAdaptive.Grows
		info.RankGrows = &g
	case s.FD != nil:
		info.Certificate = certOf(s.FD)
	}
}
