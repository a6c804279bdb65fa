package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutronstar/internal/obs"
)

// -update regenerates testdata/golden.json from goldenDoc. Run it after any
// intentional schema change — and bump SchemaVersion if the change is
// breaking.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenDoc is a fixed document exercising every schema field, including the
// optional residual block, the optional pool summary (present on the pooled
// run, absent on the unpooled one), the v3 causal fields (straggler index,
// barrier share and a critical path on the multi-worker run; absent on the
// single-worker one), the tensor-parallel flip counters and a residual-free
// run. Host metadata is pinned so the golden bytes are host-independent.
func goldenDoc() *Doc {
	return &Doc{
		SchemaVersion: SchemaVersion,
		Graph: GraphInfo{Name: "bench-rmat", Vertices: 4000, Edges: 48000,
			FeatureDim: 32, HiddenDim: 16, Classes: 8, Layers: 2},
		Host: Host{GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
			GOMAXPROCS: 8, NumCPU: 8},
		Runs: []Run{
			{
				Name: "hybrid-w4", Mode: "hybrid", Workers: 4, Epochs: 5,
				WallMedianSeconds: 0.025, WallMeanSeconds: 0.026,
				EpochsPerSec: 38.5, BytesPerEpoch: 800000, FinalLoss: 1.9,
				AllocsPerEpoch: 52000, HeapBytesPerEpoch: 9400000,
				Pool: &PoolSummary{Hits: 11800, Misses: 600,
					HighWaterBytes: 2500000, HitRate: 0.9516},
				StageCoverage: 0.998,
				Stages: []StageSummary{
					{Stage: "forward", MedianSeconds: 0.040, MeanSeconds: 0.041},
					{Stage: "backward", MedianSeconds: 0.030, MeanSeconds: 0.031},
					{Stage: "dep_fetch_recv", MedianSeconds: 0.010, MeanSeconds: 0.011,
						BytesPerEpoch: 400000, MsgsPerEpoch: 24},
					{Stage: "grad_sync", MedianSeconds: 0.008, MeanSeconds: 0.008,
						BytesPerEpoch: 120000, MsgsPerEpoch: 24},
					{Stage: "barrier", MedianSeconds: 0.002, MeanSeconds: 0.002},
				},
				Residuals: &ResidualSummary{
					FitMethod:             "least_squares",
					Probed:                FactorSet{Tv: 1e-8, Te: 2e-9, Tc: 5e-9},
					Fitted:                FactorSet{Tv: 1.1e-8, Te: 2.2e-9, Tc: 6e-9},
					MaxAbsComputeResidual: 0.08, MaxAbsCommResidual: 0.15,
					FlipsCacheToComm: 3, FlipsCommToCache: 0,
					FlipsToTP: 1, FlipsFromTP: 0, Slots: 420,
				},
				StragglerIndex: 1.18, BarrierShare: 0.06,
				CritPath: &obs.CritPath{
					WallSeconds: 0.025, CoveredSeconds: 0.025,
					Spans: []obs.CritSpan{
						{Kind: "compute", Worker: 2, Stage: "forward", Layer: 1,
							StartSeconds: 0, EndSeconds: 0.011},
						{Kind: "net", Worker: 3, From: 2, MsgKind: "rep", Layer: 2,
							StartSeconds: 0.011, EndSeconds: 0.014},
						{Kind: "compute", Worker: 3, Stage: "backward", Layer: 2,
							StartSeconds: 0.014, EndSeconds: 0.025},
					},
				},
			},
			{
				Name: "depcache-w1", Mode: "depcache", Workers: 1, Epochs: 5,
				WallMedianSeconds: 0.060, WallMeanSeconds: 0.061,
				EpochsPerSec: 16.4, BytesPerEpoch: 0, FinalLoss: 1.9,
				AllocsPerEpoch: 81000, HeapBytesPerEpoch: 14000000,
				StageCoverage: 1.0,
				Stages: []StageSummary{
					{Stage: "forward", MedianSeconds: 0.035, MeanSeconds: 0.035},
					{Stage: "backward", MedianSeconds: 0.025, MeanSeconds: 0.026},
				},
			},
		},
		Serving: &ServingSummary{
			Mode: "closed", Requests: 400, Errors: 0, VertsPerReq: 4, Seed: 7,
			Concurrency: 8, DurationSeconds: 1.6, QPS: 250,
			P50LatencyMs: 2.1, P99LatencyMs: 9.8, MeanLatencyMs: 2.9,
			CacheHits: 5200, CacheMisses: 800,
		},
	}
}

// TestGoldenRoundTrip pins the on-disk schema: the committed golden file must
// parse, validate, and re-serialise to byte-identical JSON. A diff here means
// the schema changed — regenerate with -update and review the diff under the
// stability rules in the package comment.
func TestGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := goldenDoc().WriteFile(golden); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "roundtrip.json")
	if err := doc.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("round-trip changed the document; schema drift?\n--- golden ---\n%s\n--- round-trip ---\n%s", want, got)
	}
}

func TestValidateRejectsMalformedDocs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Doc)
		wantErr string
	}{
		{"wrong schema version", func(d *Doc) { d.SchemaVersion = 99 }, "schema_version"},
		{"no runs", func(d *Doc) { d.Runs = nil; d.Serving = nil }, "no runs"},
		{"bad serving mode", func(d *Doc) { d.Serving.Mode = "burst" }, "serving mode"},
		{"zero serving requests", func(d *Doc) { d.Serving.Requests = 0 }, "serving requests"},
		{"zero serving qps", func(d *Doc) { d.Serving.QPS = 0 }, "serving qps"},
		{"inverted percentiles", func(d *Doc) { d.Serving.P99LatencyMs = 1 }, "percentiles"},
		{"unnamed run", func(d *Doc) { d.Runs[0].Name = "" }, "no name"},
		{"duplicate names", func(d *Doc) { d.Runs[1].Name = d.Runs[0].Name }, "duplicate"},
		{"zero workers", func(d *Doc) { d.Runs[0].Workers = 0 }, "workers"},
		{"zero epochs", func(d *Doc) { d.Runs[0].Epochs = 0 }, "epochs"},
		{"zero wall", func(d *Doc) { d.Runs[0].WallMedianSeconds = 0 }, "wall_median_seconds"},
		{"unknown stage", func(d *Doc) { d.Runs[0].Stages[0].Stage = "warp_drive" }, "unknown stage"},
		{"negative seconds", func(d *Doc) { d.Runs[0].Stages[0].MeanSeconds = -1 }, "negative seconds"},
		{"negative straggler", func(d *Doc) { d.Runs[0].StragglerIndex = -1 }, "straggler_index"},
		{"empty crit path", func(d *Doc) { d.Runs[0].CritPath.Spans = nil }, "no spans"},
		{"bad span kind", func(d *Doc) { d.Runs[0].CritPath.Spans[0].Kind = "magic" }, "kind"},
		{"inverted span", func(d *Doc) { d.Runs[0].CritPath.Spans[0].EndSeconds = -1 }, "ends before"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := goldenDoc()
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed document")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateAcceptsGolden(t *testing.T) {
	if err := goldenDoc().Validate(); err != nil {
		t.Fatal(err)
	}
}

// A serving-only document (nsload output with no training runs) is valid as
// of schema v4.
func TestValidateAcceptsServingOnlyDoc(t *testing.T) {
	d := goldenDoc()
	d.Runs = nil
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := median(tc.in); got != tc.want {
			t.Fatalf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	// median must not reorder its argument.
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median mutated its input: %v", xs)
	}
}
