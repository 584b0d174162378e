package laminar

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// isPrimeTemplate stamps out distinct PE classes for index-scale tests; the
// single %d becomes the class-name suffix.
const isPrimeTemplate = `
class Check%d(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if num >= 2 and all(num %% i != 0 for i in range(2, num)):
            return num
`

const isPrimeWorkflow = `
import random

class NumberProducer(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
    def _process(self):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if num >= 2 and all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def __init__(self):
        ConsumerPE.__init__(self)
    def _process(self, num):
        print("the num %s is prime" % num)

pe1 = NumberProducer()
pe2 = IsPrime()
pe3 = PrintPrime()
graph = WorkflowGraph()
graph.connect(pe1, 'output', pe2, 'input')
graph.connect(pe2, 'output', pe3, 'input')
`

// TestFacadeEndToEnd drives the public API exactly as the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	srv := NewServer(ServerOptions{})
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(url)
	if err := cli.Register("zz46", "password"); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Run(isPrimeWorkflow, RunOptions{
		Input:   10,
		Process: "MULTI",
		Args:    map[string]any{"num": 5},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Summary, "mapping=MULTI") {
		t.Errorf("summary: %s", resp.Summary)
	}
	// run() auto-registered the workflow under an inferred name derived
	// from its first PE class.
	hits, err := cli.SearchRegistry("number producer", SearchWorkflows, QueryText)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("auto-registered workflow should be text-searchable")
	}
	hits, err = cli.SearchRegistry("a PE that checks whether numbers are prime", SearchPEs, QuerySemantic)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || !strings.Contains(hits[0].Name, "Prime") {
		t.Errorf("semantic hits: %+v", hits)
	}
}

// TestFacadeRegistryPersistence verifies the RegistryPath round trip.
func TestFacadeRegistryPersistence(t *testing.T) {
	path := t.TempDir() + "/registry.json"
	srv := NewServer(ServerOptions{RegistryPath: path})
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(url)
	if err := cli.Register("ann", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.RegisterWorkflow(isPrimeWorkflow, "isPrime", "primes"); err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveRegistry(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewServer(ServerOptions{RegistryPath: path})
	url2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2 := NewClient(url2)
	if err := cli2.Login("ann", "pw"); err != nil {
		t.Fatalf("credentials lost across restart: %v", err)
	}
	wf, err := cli2.GetWorkflow("isPrime")
	if err != nil || wf.EntryPoint != "isPrime" {
		t.Fatalf("workflow lost across restart: %v %v", wf, err)
	}
	// the reloaded workflow still executes
	if _, err := cli2.Run("isPrime", RunOptions{Input: 2, Seed: 5}); err != nil {
		t.Fatalf("reloaded workflow does not run: %v", err)
	}
}

// TestFacadeClusteredRestartRestoresIndex is the deployment-level restart
// guarantee: a clustered laminar-server saves its registry, and the next
// process restores the trained index structure from the snapshot — semantic
// answers are identical and nothing was retrained.
func TestFacadeClusteredRestartRestoresIndex(t *testing.T) {
	path := t.TempDir() + "/registry.json"
	opts := ServerOptions{RegistryPath: path, Index: "clustered", IndexCentroids: 8, IndexNProbe: 2}
	srv := NewServer(opts)
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(url)
	if err := cli.Register("ann", "pw"); err != nil {
		t.Fatal(err)
	}
	// Enough PEs that the clustered index actually trains (>= 64 vectors).
	for i := 0; i < 70; i++ {
		src := fmt.Sprintf(isPrimeTemplate, i)
		if _, err := cli.RegisterPE(src, fmt.Sprintf("Check%d", i),
			fmt.Sprintf("checks property number %d of an integer stream", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Registry().WaitIndexReady()
	before, err := cli.SearchRegistry("checks an integer property", SearchPEs, QuerySemantic)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveRegistry(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewServer(opts)
	if !srv2.Registry().IndexesRestored() {
		t.Fatal("restart rebuilt the indexes instead of restoring the snapshot")
	}
	url2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2 := NewClient(url2)
	if err := cli2.Login("ann", "pw"); err != nil {
		t.Fatal(err)
	}
	after, err := cli2.SearchRegistry("checks an integer property", SearchPEs, QuerySemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("semantic answers changed across restart:\n before %+v\n after  %+v", before, after)
	}
}

// TestFacadeCorruptRegistryRefusesToStart: a damaged registry file must
// abort startup — booting empty would let the shutdown Save overwrite a
// recoverable file with nothing.
func TestFacadeCorruptRegistryRefusesToStart(t *testing.T) {
	path := t.TempDir() + "/registry.json"
	if err := os.WriteFile(path, []byte(`{"users": [truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer started over a corrupt registry file")
		}
	}()
	NewServer(ServerOptions{RegistryPath: path})
}

// TestFacadeRejectsOutOfRangeOptions: NewServer fails fast on what Validate
// rejects instead of clamping it in a lower layer.
func TestFacadeRejectsOutOfRangeOptions(t *testing.T) {
	for _, opts := range []ServerOptions{
		{Index: "clustered", IndexRecallTarget: 1.5},
		{Index: "clustered", IndexSpill: -1},
		{CacheSize: -1},
		{DeltaCompactRatio: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer accepted %+v", opts)
				}
			}()
			NewServer(opts)
		}()
	}
}

// TestFacadeRemoteEngine wires the Table 5 remote configuration through the
// public constructors.
func TestFacadeRemoteEngine(t *testing.T) {
	srv := NewServer(ServerOptions{})
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs, engineURL, err := NewRemoteEngine("", 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	cli := NewClient(url)
	cli.RemoteEngineURL = engineURL
	if err := cli.Register("bob", "pw"); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Run(isPrimeWorkflow, RunOptions{Input: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DurationMS <= 0 {
		t.Error("remote engine reported no duration")
	}
}

// TestFacadeVOService checks the VO constructor used by the astrophysics
// example.
func TestFacadeVOService(t *testing.T) {
	svc, voURL, err := NewVOService(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !strings.HasPrefix(voURL, "http://") {
		t.Errorf("vo url: %s", voURL)
	}
	eng := NewLocalEngine(voURL)
	if eng == nil {
		t.Fatal("nil engine")
	}
}
