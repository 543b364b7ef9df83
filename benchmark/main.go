// Command benchmark is the repository's one benchmark: four fixed-work
// workloads run as closed loops against the public package APIs, each in
// its own process, reporting nine end-to-end metrics (untraced pass) and
// a per-layer ledger (traced pass). See README.md in this directory.
//
//	bash benchmark/run.sh                      all workloads, both passes
//	bash benchmark/run.sh -workload beam_serial -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -manifest            print BENCHMARK.json
//	bash benchmark/run.sh -compare old.jsonl new.jsonl
//	bash benchmark/run.sh -guard beam_serial   determinism guard
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed and secondSeed are the two committed seeds: the first is
// the default, the second backs the repeatability evidence in README.md.
const (
	defaultSeed = 20240917
	secondSeed  = 77
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
		seed     = flag.Uint64("seed", defaultSeed, "generator seed; the program sees only the generated frames")
		seconds  = flag.Int("seconds", runSeconds, "scales the cycle count from the nominal rate; never read as a clock")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics, spans to <outdir>/<workload>.trace.jsonl")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json generated from the workload and metric tables")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.jsonl new.jsonl")
		guard    = flag.String("guard", "", "determinism guard: run this workload twice at the same seed and compare counts")
		results  = flag.String("results", "", "append each run's full result as one JSON line to this file")
		outDir   = flag.String("outdir", "benchmark/out", "trace and result files")
		tmpDir   = flag.String("tmpdir", ".bench_build/tmp", "checkpoint and hibernation files")
	)
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.jsonl new.jsonl")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *guard != "":
		os.Exit(runGuard(*guard, *seed, *seconds, *outDir, *tmpDir))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *results, *outDir, *tmpDir))
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		res, err := runOne(w, *seed, w.Cycles(*seconds), *trace != 0, *outDir, *tmpDir)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		printResult(os.Stdout, res)
		if *results != "" {
			if err := appendResult(*results, res); err != nil {
				fatalf("%v", err)
			}
		}
		printContractLine(os.Stdout, res)
		if res.OpsFailed > 0 {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs the given number of cycles of one workload in this
// process.
func runOne(w workload, seed uint64, cycles int, trace bool, outDir, tmpRoot string) (*result, error) {
	// Pin the scheduler width before anything touches the mat worker
	// pool, which sizes itself from GOMAXPROCS at first use.
	procs := min(w.Procs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{
		Workload: w.Name, Seed: seed, Trace: trace,
		Procs: procs, TmpDir: tmpRoot, Metrics: map[string]value{},
	}
	d := dirs{tmp: tmp, out: outDir}
	start := time.Now()
	if w.Tenants > 0 {
		err = runTenants(w, seed, cycles, trace, d, res)
	} else {
		err = runMonitor(w, seed, cycles, trace, d, res)
	}
	if err != nil {
		return nil, err
	}
	res.TotalS = time.Since(start).Seconds()
	// Every metric the pass reports must be present and finite.
	for _, m := range reported(trace) {
		v, ok := res.Metrics[m.Name]
		res.op(ok && finite(v.Value), "metric %s missing or not finite", m.Name)
	}
	return res, nil
}

// reported are the metrics a pass prints: the nine end-to-end metrics
// untraced; traced, the per-layer metrics led by the traced pass's own
// reading of the demoted end-to-end ones.
func reported(trace bool) []metric {
	if trace {
		return append(demoted(), perLayer...)
	}
	return endToEnd
}

// contract are the metrics on the line the driver reads, as
// BENCHMARK.json declares them: the bounded end-to-end metrics untraced,
// every unbounded one traced.
func contract(trace bool) []metric {
	if trace {
		return reported(true)
	}
	return bounded()
}

// printResult prints every metric of the pass by name, with unit and
// sample count, then the ledger lines and any failed checks.
func printResult(w *os.File, res *result) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d GOMAXPROCS=%d cycles=%d frames=%d cycles_wall=%.1fs run_wall=%.1fs tmpdir=%s\n",
		res.Workload, pass, res.Seed, res.Procs, res.Cycles, res.Frames, res.WallS, res.TotalS, res.TmpDir)
	for _, m := range reported(res.Trace) {
		v := res.Metrics[m.Name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("n=%d", v.N)
		}
		if m.Demoted != "" && res.Trace {
			note += " (end-to-end, unbounded; this is the traced pass's reading)"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-9s %s\n", m.Name, v.Value, v.Unit, strings.TrimSpace(note))
	}
	for _, l := range res.Ledger {
		fmt.Fprintf(w, "  ledger: %s\n", l)
	}
	fmt.Fprintf(w, "  ops=%d ops_failed=%d\n", res.Ops, res.OpsFailed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printContractLine prints the last line the driver reads.
func printContractLine(w *os.File, res *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.OpsFailed == 0, res.Ops, res.OpsFailed, map[string]mv{}}
	for _, m := range contract(res.Trace) {
		v := res.Metrics[m.Name]
		out.Metrics[m.Name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild runs one workload pass in its own process (each workload
// pins its own GOMAXPROCS and must start with a cold mat pool) and
// returns its full result.
func runChild(w workload, seed uint64, seconds int, trace bool, outDir, tmpDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmpFile := filepath.Join(outDir, fmt.Sprintf(".%s.%d.result.jsonl", w.Name, os.Getpid()))
	os.Remove(tmpFile)
	defer os.Remove(tmpFile)
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(t), "-results", tmpFile, "-outdir", outDir, "-tmpdir", tmpDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// Drop the contract line; the parent prints the human-readable part.
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if n := len(lines); n > 0 && strings.HasPrefix(lines[n-1], "{") {
		lines = lines[:n-1]
	}
	fmt.Println(strings.Join(lines, "\n"))
	b, err := os.ReadFile(tmpFile)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll is the one command: every workload, untraced then traced, each
// pass in its own process. The two passes of a workload are two runs at
// one seed, so their cov_err_rel must be identical.
func runAll(seed uint64, seconds int, results, outDir, tmpDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	failed := 0
	for _, w := range workloads {
		var fps, cov [2]float64
		for pass, trace := range []bool{false, true} {
			res, err := runChild(w, seed, seconds, trace, outDir, tmpDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				failed++
				continue
			}
			failed += res.OpsFailed
			if results != "" {
				if err := appendResult(results, res); err != nil {
					fatalf("%v", err)
				}
			}
			fps[pass] = res.Metrics["frames_per_s"].Value
			cov[pass] = res.Metrics["cov_err_rel"].Value
		}
		if fps[0] > 0 && fps[1] > 0 {
			fmt.Printf("  bench.trace_overhead_pct %.2f %% (untraced %.1f vs traced %.1f frames/s)\n",
				(fps[0]/fps[1]-1)*100, fps[0], fps[1])
		}
		if cov[0] != cov[1] {
			fmt.Printf("  FAILED: cov_err_rel differs between the two passes at one seed: %v vs %v\n", cov[0], cov[1])
			failed++
		}
		fmt.Println()
	}
	fmt.Printf("all workloads done in %.0fs, failed operations: %d\n", time.Since(start).Seconds(), failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// guardExact are the counts two runs at one seed must agree on exactly;
// guardAlloc is the relative tolerance on alloc_bytes_per_frame.
var guardExact = []string{"sketch.rotations", "engine.reconciles", "ckpt.bytes", "tenant.hibernations"}

func guardAlloc(w workload) float64 {
	if w.Tenants > 0 {
		return 0.02 // pump batching follows the scheduler
	}
	return 0.005
}

// runGuard runs one workload twice, back to back, at the same seed and
// the minimum cycle count, and fails naming the first metric that
// differs. It is what catches a timer or a scheduling dependency
// creeping into a workload.
func runGuard(name string, seed uint64, seconds int, outDir, tmpDir string) int {
	w, ok := findWorkload(name)
	if !ok {
		fatalf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	// A traced run carries the end-to-end metrics and the counts.
	var runs [2]map[string]value
	for i := range runs {
		res, err := runChild(w, seed, seconds, true, outDir, tmpDir)
		if err != nil {
			fatalf("%v", err)
		}
		if res.OpsFailed > 0 {
			return 1
		}
		runs[i] = res.Metrics
	}
	bad := guardDiff(w, runs[0], runs[1])
	for _, b := range bad {
		fmt.Printf("guard: %s\n", b)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Printf("guard: %s repeats (%s identical, alloc_bytes_per_frame within %.1f%%)\n",
		w.Name, strings.Join(append([]string{"cov_err_rel"}, guardExact...), ", "), guardAlloc(w)*100)
	return 0
}

// guardDiff lists the guarded metrics on which two runs disagree.
func guardDiff(w workload, a, b map[string]value) []string {
	var bad []string
	for _, k := range append([]string{"cov_err_rel"}, guardExact...) {
		if a[k].Value != b[k].Value {
			bad = append(bad, fmt.Sprintf("%s differs between two runs at one seed: %v vs %v", k, a[k].Value, b[k].Value))
		}
	}
	x, y := a["alloc_bytes_per_frame"].Value, b["alloc_bytes_per_frame"].Value
	if tol := guardAlloc(w); x <= 0 || y <= 0 || abs(x-y)/min(x, y) > tol {
		bad = append(bad, fmt.Sprintf("alloc_bytes_per_frame differs by more than %.1f%%: %v vs %v", tol*100, x, y))
	}
	sort.Strings(bad)
	return bad
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
