// Two data-intensive workloads on Pilot-Data across two sites:
//
//  1. genome read alignment (Smith-Waterman) with the reference staged at
//     one site — data-aware scheduling keeps tasks next to the data;
//  2. a MapReduce wordcount whose shuffle crosses sites.
//
// Reproduces the flavour of the paper's Pilot-Data and Pilot-MapReduce
// case studies ([66], [54]; Table I "Data-Parallel"/"Dataflow").
//
//	go run ./examples/mapreduce_genomics
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gopilot/internal/apps/genomics"
	"gopilot/internal/apps/wordcount"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/experiments"
	"gopilot/internal/infra"
	"gopilot/internal/mapreduce"
	"gopilot/internal/metrics"
	"gopilot/internal/scheduler"
)

func main() {
	tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 30, Seed: 3})
	defer tb.Close()
	mgr := tb.NewManager(scheduler.DataAware{})

	// One pilot at each HPC site.
	for _, r := range []string{"hpc://stampede", "hpc://comet"} {
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: r, Resource: r, Cores: 16, Walltime: 12 * time.Hour,
		}); err != nil {
			log.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// ---------------- genome alignment --------------------------------------
	ref := genomics.GenerateReference(3000, tb.Root.Named("reference"))
	reads := genomics.SampleReads(ref, 48, 36, 0.03, tb.Root.Named("reads"))
	chunks := genomics.Chunk(reads, 8)
	// The reference models a 3 GB file living at stampede.
	refID, chunkIDs, err := genomics.StageInputs(ctx, tb.Data, "stampede", ref, chunks, 3e9)
	if err != nil {
		log.Fatal(err)
	}
	tb.Data.ResetStats()
	res, err := genomics.Run(ctx, mgr, genomics.Config{
		ReferenceID: refID, ChunkIDs: chunkIDs, MinScore: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := tb.Data.Stats()
	fmt.Printf("alignment: %d/%d reads aligned in %s (modeled)\n",
		res.AlignedReads, res.TotalReads, metrics.FormatDuration(res.Elapsed))
	fmt.Printf("data-aware scheduling: %d local reads, %d cross-site transfers, %.1f GB moved\n\n",
		st.LocalReads, st.RemoteReads+st.Replications, float64(st.BytesMoved)/1e9)

	// ---------------- MapReduce wordcount -----------------------------------
	corpus := wordcount.GenerateCorpus(8, 2000, 200, tb.Root.Named("corpus"))
	ids := make([]string, len(corpus))
	for i, s := range corpus {
		ids[i] = fmt.Sprintf("wc-%d", i)
		site := "stampede"
		if i%2 == 1 {
			site = "comet" // inputs split across sites → cross-site shuffle
		}
		if err := tb.Data.Put(ctx, data.Unit{ID: ids[i], Content: []byte(s), LogicalSize: 256e6, Site: infra.Site(site)}); err != nil {
			log.Fatal(err)
		}
	}
	job := wordcount.Config("wc", ids, 4)
	job.MapCost = 20 * time.Second
	job.ReduceCost = 10 * time.Second
	mrRes, err := mapreduce.Run(ctx, mgr, job)
	if err != nil {
		log.Fatal(err)
	}
	out, err := mapreduce.Collect(ctx, mgr, mrRes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wordcount: %d map + %d reduce tasks, %d distinct words, %s modeled (map %s, shuffle+reduce %s)\n",
		mrRes.MapTasks, mrRes.ReduceTasks, len(out),
		metrics.FormatDuration(mrRes.Elapsed),
		metrics.FormatDuration(mrRes.MapElapsed),
		metrics.FormatDuration(mrRes.ReduceElapsed))
}
