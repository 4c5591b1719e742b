package campaign

import (
	"context"
	"sync"
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/farm"
)

// TestCampaignConcurrentWithFarm runs a campaign shard while a farm
// churns warm and cold protection jobs over its stage cache —
// the -race proof that campaign execution, cache fills and cache hits
// don't trample each other. (The campaign reads a Protected produced
// through the same cache the farm keeps mutating.)
func TestCampaignConcurrentWithFarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrency test")
	}
	f := farm.New(farm.Config{Workers: 2})
	defer f.Close()

	wget, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{VerifyFuncs: []string{wget.VerifyFunc}}

	// The campaign target is protected through the shared cache, so
	// campaign reads and farm cache traffic touch the same structures.
	prot, err := f.Protect(context.Background(), "target",
		targetModule(t), core.Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the wget entries so half the background jobs are cache hits.
	if _, err := f.Protect(context.Background(), "warmup", wget.Build(), opts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Warm jobs (cache hits) and cold jobs (fresh xor-chain seeds
		// → scan misses) interleave while the campaign runs.
		for i := 0; i < 4; i++ {
			o := opts
			if i%2 == 1 {
				o.ChainMode, o.Seed = dyngen.ModeXor, uint32(3+i) // cold: different content key
			}
			if _, err := f.Protect(context.Background(), "bg", wget.Build(), o); err != nil {
				t.Errorf("background farm job: %v", err)
				return
			}
		}
	}()

	rep, err := Run(context.Background(), prot, Config{
		Workers:    2,
		Stride:     7,
		MaxMutants: 300,
		MaxInst:    2_000_000,
		Timeout:    10 * time.Second,
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Panics != 0 {
		t.Errorf("%d harness panics during concurrent campaign", rep.Panics)
	}
	if rep.Mutants == 0 {
		t.Error("concurrent campaign ran no mutants")
	}
	if s := f.Stats(); s.JobsFailed > 0 {
		t.Errorf("farm jobs failed during campaign: %s", s)
	}
}
