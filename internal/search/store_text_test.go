package search_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"laminar/internal/core"
	"laminar/internal/registry"
	"laminar/internal/search"
)

// TestStoreTextSearchMatchesSeedTextOverTheListing is the store-level
// differential of the text leg: whatever two owners have done to a store —
// registered, co-owned each other's PEs and workflows, removed, upserted a
// new description — registry.Store.Search{Text} answers each of them,
// byte for byte, what the seed's Text answers over that user's listing.
// The vocabulary is small, so most queries match many records and the low
// limits force the PE/workflow interleave. One seed is fresh on every run;
// a failure names it.
func TestStoreTextSearchMatchesSeedTextOverTheListing(t *testing.T) {
	for name, seed := range map[string]int64{"seed=1": 1, "seed=16": 16, "seed=2023": 2023, "fresh": time.Now().UnixNano()} {
		t.Run(name, func(t *testing.T) { storeTextDifferential(t, seed) })
	}
}

func storeTextDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"stream", "Prime", "is", "word", "Count", "filter", "x9", "Kelvin", "read_file", "né", "İd"}
	phrase := func(n int, sep string) string {
		words := make([]string, 1+rng.Intn(n))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(words, sep)
	}
	store := registry.NewStore()
	var users [2]int
	for i, name := range []string{"ann", "ben"} {
		u, err := store.RegisterUser(name, "password")
		if err != nil {
			t.Fatal(err)
		}
		users[i] = u.UserID
	}
	owned := map[int][]string{} // user → PE names registered so far, repeats and removed ones included
	interleaved := 0            // replies cut to the limit that still carry both kinds
	for step := 0; step < 400; step++ {
		user := users[rng.Intn(2)]
		other := users[0] + users[1] - user
		switch op := rng.Intn(10); {
		case op < 4: // a PE of one's own
			name := fmt.Sprintf("%s%d", phrase(3, ""), step)
			if _, err := store.AddPE(user, core.AddPERequest{PEName: name, Description: phrase(5, " "), PECode: "opaque"}); err != nil {
				t.Fatal(err)
			}
			owned[user] = append(owned[user], name)
		case op < 5 && len(owned[other]) > 0: // co-own one of the other user's
			name := owned[other][rng.Intn(len(owned[other]))]
			if _, err := store.AddPE(user, core.AddPERequest{PEName: name, Description: "ignored", PECode: "opaque"}); err != nil {
				t.Fatal(err)
			}
			owned[user] = append(owned[user], name)
		case op < 6 && len(owned[user]) > 0: // the description changes under the same id
			name := owned[user][rng.Intn(len(owned[user]))]
			if _, _, err := store.UpsertPE(user, core.AddPERequest{PEName: name, Description: phrase(5, ", "), PECode: "opaque"}); err != nil {
				t.Fatal(err)
			}
		case op < 7 && len(owned[user]) > 0: // may already be gone: a miss changes nothing
			_ = store.RemovePEByName(user, owned[user][rng.Intn(len(owned[user]))])
		case op < 9:
			entry := fmt.Sprintf("%s_%d", phrase(2, "_"), step%40) // repeats co-own
			if _, err := store.AddWorkflow(user, core.AddWorkflowRequest{
				EntryPoint: entry, WorkflowName: phrase(2, ""), Description: phrase(4, ", "), WorkflowCode: "opaque",
			}); err != nil {
				t.Fatal(err)
			}
		default:
			if wfs := store.WorkflowsForUser(user); len(wfs) > 0 {
				if err := store.RemoveWorkflow(user, wfs[rng.Intn(len(wfs))].WorkflowID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%4 != 3 {
			continue
		}
		queries := []registry.Input{
			{Text: phrase(2, []string{" ", "", "-"}[rng.Intn(3)])},
			{Text: strings.ToUpper(phrase(1, ""))},
			{Text: phrase(3, " ")[1:]}, // starts inside a word, may start inside a rune
		}
		for _, st := range []core.SearchType{core.SearchPEs, core.SearchWorkflows, core.SearchBoth} {
			limit := []int{0, 1, 3, 7, 1000}[rng.Intn(5)]
			for _, u := range users {
				pes, wfs := store.PEsForUser(u), store.WorkflowsForUser(u)
				lists := store.Search(u, registry.Query{Text: true, Type: st, Limit: limit}, queries...)
				for i, q := range queries {
					got, _ := json.Marshal(lists[i])
					seedHits := search.SeedText(q.Text, st, pes, wfs, limit)
					want, _ := json.Marshal(seedHits)
					if string(got) != string(want) {
						t.Fatalf("seed %d, step %d, user %d, %q over %s at limit %d:\n got %s\nwant %s", seed, step, u, q.Text, st, limit, got, want)
					}
					if n := len(seedHits); n == limit && n > 1 && seedHits[0].Kind != seedHits[1].Kind {
						interleaved++
					}
				}
			}
		}
	}
	if interleaved == 0 {
		t.Fatalf("seed %d: no reply overflowed its limit with both kinds matching; the interleave went untested", seed)
	}
}
