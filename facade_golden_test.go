package lbica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// facadeGoldens pins the facade-only run features — the ones the sweep grid
// cannot express — to the sha256 of each Report's JSON encoding (and, for
// the trace/record hooks, of the emitted bytes). The digests were captured
// before the facade was routed through experiments.Spec; any change to how
// these runs are assembled shows up here as a digest mismatch.
var facadeGoldens = map[string]string{
	"alias/mixed":                    "d6456e9b97a1d567527dec45f0c7321d8e7162e2f32dccda0b676b1773943409",
	"alias/mixed-3vol":               "aa4adb6f8f379c177edf32a2aeec08577e966bbbae2177d28344a8f3532c6e25",
	"alias/random-read":              "104c47ad6ee3f56899accad5f9c20fc000d2a947f9d5e586a4fad159f3138ca7",
	"alias/random-write":             "bc054aa41b6c6e39577c35e04f1ff4096ba1719adce6ba617f598e7dc628fc64",
	"alias/seq-read":                 "53b0511148543849f3b8da1e5cddec4cd0b57098544e849f269785edc452e689",
	"alias/seq-write":                "bb50a6cbfc71f1b967e4e86f0cf25ac6236ce43f33971c5dcd2314f8da0bc5b0",
	"cache/16way":                    "0485237bfaa610673df7a974ee0667f3fa2737993deb216029d5f57205abe9ed",
	"cache/32mib-4way":               "6da41cc12b039bf514186606a0db180f0f2744bd4bb0ab41b203034b20a7a01f",
	"cache/64mib-3vol":               "c29b01bc8aafa5e05e43ded794cee21ea4629d258ae917b8cd53581c4f36bba9",
	"checkpoint/lbica/restored":      "d8b24cc101c2b4c5c5b9b2d46f40ad8177fa54a5a035cd68eeeb351274cb6845",
	"checkpoint/lbica/saved":         "d8b24cc101c2b4c5c5b9b2d46f40ad8177fa54a5a035cd68eeeb351274cb6845",
	"checkpoint/ro/restored":         "a1f3afd4289cd398786e8be9678b4af1f5582e09317c04d38bd7252ce6510611",
	"checkpoint/ro/saved":            "a1f3afd4289cd398786e8be9678b4af1f5582e09317c04d38bd7252ce6510611",
	"checkpoint/wb/restored":         "7570f087f6908d751d52e3912876df7b720cc54b4412a70cfcb4f2825957faf6",
	"checkpoint/wb/saved":            "7570f087f6908d751d52e3912876df7b720cc54b4412a70cfcb4f2825957faf6",
	"elevator/2vol":                  "85a6194b0f6cf478bdbe6188a01f05e85393fb30eddf2abe834a485f6c25d878",
	"elevator/tpcc":                  "704a31daa3cb1a310b9ff529ae0cef6bf7d5d73f9b723b8d668f5501cbffe122",
	"noprewarm/3vol-array-lb":        "a469447d6fa1fd64640583506c2709ada374b5574d9f98c7baa82f97d1987b2c",
	"noprewarm/mail":                 "411b67bdf1e689ee7d3675befca58a1827d33840621b34ac9c26bc5699de096b",
	"phases/2vol":                    "ae42d46918d11d974631018b6496aed035500081698cff2fb18120aa3cf4b1bb",
	"phases/named":                   "bb447520adf58796d4fe66db6b2b8136c4f483e37faf005118c2a284bdf412ba",
	"phases/unnamed-wb":              "82c408785548631d1c76ac8839c9a86116980f54b05c8c38cf9545bd1fc47313",
	"record/stream":                  "17d64e7ee23dcc3ea409c1ff29d06e1b9078e568f1b829405c74b1667f59d0f1",
	"record/tpcc-wb":                 "bfbc7de131b9c02def502737fdff52ef518b5e952b9b81fb3dd87e7625666c3e",
	"replacement/fifo":               "d873ff7c116dbf45d1b4d0bbfb6f069985fa191ae0df9984f5022165adfdf4a4",
	"replacement/fifo-3vol":          "25b15854d7ac81a43cdc921a37681a66e9abc2d2a7c9c17414bf9fdfef37953a",
	"replacement/fifo-3vol-array-lb": "ec29dc9f563dd6cd3d9415fded7212526d06902210999d227a71ba93d431e783",
	"replacement/rand":               "5d0154174a15b46c17e4f946695fdcd2b5dd06909cfb8cbdda7162539d6c724f",
	"replacement/rand-3vol":          "549c7e1735eb962669dbc991ba227f759137c6877020eaade65f473c7347ca62",
	"replacement/rand-3vol-array-lb": "4d793a0afeced0df11f8a1c2f9ab0fc2e5c4cab55da5f22a5ff13f932a919c21",
	"replay/1vol":                    "45c228a7198912d8fbccfe0c89443a1b4e115debf594e144ac7170e25ebd42fd",
	"replay/1vol-named":              "23d2dfafc0c0871c26ab37a899daf124876796b2cab0ce8cb8377af1f277a614",
	"replay/2vol":                    "40689fe6629c643888641f9942b67c0864ec313dea03acf47ffe91ba1018fdb1",
	"replay/2vol-array-lb":           "b8fa55931a80e5891b1d62f465804709e15ef329573ac1b7da5d41632075df2c",
	"shared/tpcc-array-lb-p2c":       "5843e64fa58878f695efc930e14720ba7ddfa29146375b29343c1921afeada7f",
	"shared/tpcc-lbica-thresholds":   "a4bdc780424c44ba8bb98958ed7e991ef51e145e8b03dff7accca2df70e2300d",
	"static/ro":                      "dcd91892c962ea7bd6b2ef6532b58ee459c2dba651e232b77150330f0b13d4b5",
	"static/wo":                      "2554999f16512da1f4f07b1e13624eeb8cdf1e7a89c4bac1cb0454f5143f5c5f",
	"static/wo-3vol":                 "dd5f6fafa6c2baaa29ec012f1d2b716116b7ae8776c5abfe9130eacac319d7a6",
	"static/wt":                      "1b2a253c0b4fc5cf8adc42700d3beaa6c549c857acdcd4faea3a3b08c1b153ee",
	"static/wtwo":                    "c3c2cb9b559863295565ce9cfd28d5719132bf6fbedb73fb741b8cfc5da23a53",
	"trace/stream":                   "2888b1dff64d1df6b319ecb5f186da95370a85f91c5fa05f428548930e1130a3",
}

// goldenOpts is a short run the golden cases start from.
func goldenOpts(workload, scheme string) Options {
	return Options{Workload: workload, Scheme: scheme, Seed: 7, Intervals: 12}
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenPhases is a two-phase custom workload with a separate write region.
var goldenPhases = []Phase{
	{Name: "calm", Duration: time.Second, BaseIOPS: 1500, ReadRatio: 0.8, WorkingSetBlocks: 8192, ZipfExponent: 0.9},
	{Name: "storm", Duration: 2 * time.Second, BaseIOPS: 3000, BurstIOPS: 15000,
		BurstOn: 40 * time.Millisecond, BurstOff: 60 * time.Millisecond, ReadRatio: 0.6,
		WorkingSetBlocks: 131072, ZipfExponent: 0.7, SizesSectors: []int64{8, 16},
		WriteWorkingSetBlocks: 4096, WriteBaseBlock: 1 << 20, WriteZipfExponent: 1.1},
}

func facadeGoldenCases(t *testing.T) map[string]string {
	got := map[string]string{}
	run := func(name string, o Options) *Report {
		t.Helper()
		r, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digestJSON(t, r)
		return r
	}

	for _, sc := range []string{SchemeStaticWT, SchemeStaticRO, SchemeStaticWO, SchemeStaticWTWO} {
		run("static/"+sc, goldenOpts(WorkloadTPCC, sc))
	}
	o := goldenOpts(WorkloadMail, SchemeStaticWO)
	o.Volumes, o.RouteSkew, o.ShardWorkers = 3, 1.2, 1
	run("static/wo-3vol", o)

	run("phases/named", Options{Name: "spike", Scheme: SchemeLBICA, Seed: 7, Phases: goldenPhases, Intervals: 15})
	run("phases/unnamed-wb", Options{Scheme: SchemeWB, Phases: goldenPhases, Intervals: 15})
	run("phases/2vol", Options{Name: "spike", Scheme: SchemeLBICA, Phases: goldenPhases, Intervals: 15,
		Volumes: 2, RoutePolicy: "hash", ShardWorkers: 1})

	var rec, tr bytes.Buffer
	o = goldenOpts(WorkloadTPCC, SchemeWB)
	o.RecordTo, o.TraceWriter = &rec, &tr
	run("record/tpcc-wb", o)
	got["record/stream"] = digestBytes(rec.Bytes())
	got["trace/stream"] = digestBytes(tr.Bytes())
	replay := func(name string, o Options) {
		o.ReplayFrom = bytes.NewReader(rec.Bytes())
		run(name, o)
	}
	replay("replay/1vol", Options{Scheme: SchemeLBICA, Intervals: 12})
	replay("replay/1vol-named", Options{Name: "captured", Scheme: SchemeStaticWT, Intervals: 12})
	replay("replay/2vol", Options{Scheme: SchemeLBICA, Intervals: 12, Volumes: 2, ShardWorkers: 1})
	replay("replay/2vol-array-lb", Options{Scheme: SchemeArrayLB, Intervals: 12, Volumes: 2, ShardWorkers: 1})

	o = goldenOpts(WorkloadTPCC, SchemeLBICA)
	o.CacheMiB, o.CacheWays = 32, 4
	run("cache/32mib-4way", o)
	o = goldenOpts(WorkloadWeb, SchemeWB)
	o.CacheWays = 16
	run("cache/16way", o)
	o = goldenOpts(WorkloadTPCC, SchemeLBICA)
	o.CacheMiB, o.Volumes, o.ShardWorkers = 64, 3, 1
	run("cache/64mib-3vol", o)

	for _, repl := range []string{"fifo", "rand"} {
		o = goldenOpts(WorkloadMail, SchemeLBICA)
		o.CacheMiB, o.Replacement = 64, repl
		run("replacement/"+repl, o)
		o.Volumes, o.ShardWorkers = 3, 1
		run("replacement/"+repl+"-3vol", o)
		o.Scheme = SchemeArrayLB
		run("replacement/"+repl+"-3vol-array-lb", o)
	}

	o = goldenOpts(WorkloadTPCC, SchemeLBICA)
	o.DiskElevator = true
	run("elevator/tpcc", o)
	o.Volumes, o.ShardWorkers = 2, 1
	run("elevator/2vol", o)

	o = goldenOpts(WorkloadMail, SchemeLBICA)
	o.DisablePrewarm = true
	run("noprewarm/mail", o)
	o.Volumes, o.RouteSkew, o.ShardWorkers, o.Scheme = 3, 1.2, 1, SchemeArrayLB
	run("noprewarm/3vol-array-lb", o)

	for _, wl := range []string{WorkloadRandomRead, WorkloadRandomWrite, WorkloadSeqRead, WorkloadSeqWrite, WorkloadMixed} {
		o = goldenOpts(wl, SchemeLBICA)
		o.RateFactor = 0.5
		run("alias/"+wl, o)
	}
	o = goldenOpts(WorkloadMixed, SchemeWB)
	o.Volumes, o.ShardWorkers = 3, 1
	run("alias/mixed-3vol", o)

	o = goldenOpts(WorkloadTPCC, SchemeLBICA)
	o.Thresholds = Thresholds{MemberMin: 0.1}
	run("shared/tpcc-lbica-thresholds", o)
	o = goldenOpts(WorkloadTPCC, SchemeArrayLB)
	o.Volumes, o.RouteVariant, o.ShardWorkers = 3, "p2c", 1
	run("shared/tpcc-array-lb-p2c", o)

	for _, sc := range []string{SchemeWB, SchemeLBICA, SchemeStaticRO} {
		o = goldenOpts(WorkloadTPCC, sc)
		o.Replacement, o.CacheMiB = "fifo", 128
		path := filepath.Join(t.TempDir(), sc+".ckpt")
		saved, err := RunCheckpoint(context.Background(), o, path, 5)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RunRestore(context.Background(), o, path)
		if err != nil {
			t.Fatal(err)
		}
		got["checkpoint/"+sc+"/saved"] = digestJSON(t, saved)
		got["checkpoint/"+sc+"/restored"] = digestJSON(t, restored)
	}
	return got
}

// TestFacadeGoldenDigests: every facade-only feature reports byte-identical
// JSON to the pinned digests.
func TestFacadeGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("forty short runs are beyond the -short budget")
	}
	got := facadeGoldenCases(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := facadeGoldens[name]
		if !ok {
			t.Errorf("no golden for %q: %q", name, got[name])
			continue
		}
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	for name := range facadeGoldens {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %q has no case", name)
		}
	}
}
