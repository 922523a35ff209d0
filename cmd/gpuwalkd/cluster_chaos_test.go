package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpuwalk"
	"gpuwalk/internal/cluster"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
)

// reserveAddrs picks n distinct loopback addresses by binding and
// immediately releasing ephemeral ports. Cluster members must know the
// full peer list before any of them starts, so -addr :0 cannot be
// used; the tiny reuse race this leaves is the standard trade.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// waitCluster polls the gateway's /v1/cluster until pred holds.
func waitCluster(t *testing.T, gwBase, what string, pred func(cluster.Status) bool) cluster.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var (
		st  cluster.Status
		err error
	)
	for {
		st, err = fetchStatus(gwBase)
		if err == nil && pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %q (last status %+v, err %v)", what, st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchStatus GETs a gateway's /v1/cluster view.
func fetchStatus(gwBase string) (cluster.Status, error) {
	hc := http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get(gwBase + "/v1/cluster")
	if err != nil {
		return cluster.Status{}, err
	}
	defer resp.Body.Close()
	var st cluster.Status
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// TestClusterChaosKillRestart is the cluster acceptance test: a
// gateway fronting three backend nodes serves a sweep while one node
// is SIGKILLed mid-run. Every accepted job must reach done with
// results byte-identical to an uninterrupted single-node run, jobs
// submitted during the outage must route around the dead node, cache
// peering must serve cross-node sweep items, and a warm resweep after
// recovery must be answered from the caches.
func TestClusterChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster chaos test")
	}
	tmp := t.TempDir()
	addrs := reserveAddrs(t, 4)
	nodeAddrs, gwAddr := addrs[:3], addrs[3]
	nodeURLs := make([]string, len(nodeAddrs))
	names := make([]string, len(nodeAddrs))
	for i, a := range nodeAddrs {
		nodeURLs[i] = "http://" + a
		names[i] = cluster.NodeName(nodeURLs[i])
	}
	peerList := strings.Join(nodeURLs, ",")
	nodeArgs := func(i int) []string {
		return []string{
			"-addr", nodeAddrs[i],
			"-cache", filepath.Join(tmp, fmt.Sprintf("cache-n%d", i)),
			"-journal", filepath.Join(tmp, fmt.Sprintf("journal-n%d", i)),
			"-workers", "1", // one worker: most of a node's jobs are still queued at the kill
			"-peers", peerList,
			"-self", nodeURLs[i],
			"-probe-interval", "250ms",
			"-log-format", "text",
		}
	}
	servers := make([]*chaosServer, len(nodeAddrs))
	for i := range servers {
		servers[i] = startChaosServer(t, nodeArgs(i))
	}
	gw := startChaosServer(t, []string{
		"-gateway", "-addr", gwAddr, "-peers", peerList,
		"-probe-interval", "250ms", "-log-format", "text",
	})
	waitCluster(t, gw.base, "3/3 healthy", func(st cluster.Status) bool {
		return st.Healthy == len(nodeAddrs)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := &jobd.Client{BaseURL: gw.base}

	// Batch one: submitted with the whole cluster healthy; consistent
	// hashing spreads the sweeps across the nodes.
	const batch1 = 15
	var ids []string
	var specs [][]json.RawMessage
	byNode := make(map[string][]int)
	for i := 0; i < batch1; i++ {
		sweep := []json.RawMessage{
			chaosSpec(t, gpuwalk.FCFS, uint64(9100+i)),
			chaosSpec(t, gpuwalk.SIMTAware, uint64(9100+i)),
		}
		v, err := client.Submit(ctx, jobd.SubmitRequest{Specs: sweep})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if v.Node == "" {
			t.Fatalf("job %s carries no node label", v.ID)
		}
		ids = append(ids, v.ID)
		specs = append(specs, sweep)
		byNode[v.Node] = append(byNode[v.Node], i)
	}

	// Kill the most-loaded node (guaranteed >= batch1/3 jobs) once it
	// has started working, so the SIGKILL interrupts accepted work.
	victim := 0
	for i, n := range names {
		if len(byNode[n]) > len(byNode[names[victim]]) {
			victim = i
		}
	}
	victimJobs := byNode[names[victim]]
	waitStarted := time.Now().Add(15 * time.Second)
	for {
		v, err := client.Job(ctx, ids[victimJobs[0]])
		if err == nil && v.Started != nil {
			break
		}
		if time.Now().After(waitStarted) {
			t.Fatalf("victim's first job never started: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := servers[victim].cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no journal flush
		t.Fatal(err)
	}
	_ = servers[victim].cmd.Wait()
	waitCluster(t, gw.base, "victim marked down", func(st cluster.Status) bool {
		for _, m := range st.Members {
			if m.Node == names[victim] {
				return !m.Healthy
			}
		}
		return false
	})

	// Batch two: submitted while a third of the cluster is dead. The
	// rebuilt ring must route every sweep to a survivor.
	const batch2 = 6
	for i := 0; i < batch2; i++ {
		sweep := []json.RawMessage{
			chaosSpec(t, gpuwalk.FCFS, uint64(9400+i)),
			chaosSpec(t, gpuwalk.SIMTAware, uint64(9400+i)),
		}
		v, err := client.Submit(ctx, jobd.SubmitRequest{Specs: sweep})
		if err != nil {
			t.Fatalf("submit %d with a node down: %v", i, err)
		}
		if v.Node == names[victim] {
			t.Fatalf("job %s routed to the dead node %s", v.ID, v.Node)
		}
		ids = append(ids, v.ID)
		specs = append(specs, sweep)
	}

	// Restart the victim on its original cache and journal directories;
	// journal replay re-enqueues whatever the kill interrupted.
	servers[victim] = startChaosServer(t, nodeArgs(victim))
	waitCluster(t, gw.base, "victim recovered", func(st cluster.Status) bool {
		return st.Healthy == len(nodeAddrs)
	})

	// Every accepted job reaches done through the gateway, each item
	// byte-identical to an uninterrupted in-process run of the same
	// config against a reference cache the chaos never touched.
	refCache, err := gpuwalk.OpenResultCache(filepath.Join(tmp, "refcache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer refCache.Close()
	reference := func(spec json.RawMessage) string {
		t.Helper()
		var cfg gpuwalk.Config
		if err := json.Unmarshal(spec, &cfg); err != nil {
			t.Fatal(err)
		}
		res, _, err := gpuwalk.RunCached(ctx, refCache, cfg)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(want)
	}
	recovered, unretained := 0, 0
	for i, id := range ids {
		v, err := waitTerminal(ctx, client, id)
		if errors.Is(err, jobd.ErrNotFound) {
			// Finished on the victim before the kill: journal-terminal
			// jobs are not retained across its restart. The warm resweep
			// below still must find every one of its results.
			unretained++
			continue
		}
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if v.State != jobd.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, v.State, v.Error)
		}
		if v.Recovered {
			recovered++
		}
		for k, item := range v.Items {
			if string(item.Result) != reference(specs[i][k]) {
				t.Errorf("job %s item %d diverges from the single-node reference", id, k)
			}
		}
	}
	if recovered == 0 && unretained == 0 {
		t.Fatal("the kill interrupted nothing: no job was recovered or lost retention")
	}

	// Cache peering, deterministically: stage a result on one node, then
	// submit a sweep whose first spec routes elsewhere — its second item
	// must be answered by read-through to the staged node, not
	// re-simulated. Placement is predicted client-side with the same
	// ring the cluster builds.
	normURLs := make([]string, len(nodeURLs))
	for i, u := range nodeURLs {
		n, err := cluster.NormalizeURL(u)
		if err != nil {
			t.Fatal(err)
		}
		normURLs[i] = n
	}
	ring := cluster.BuildRing(normURLs, 0)
	owner := func(spec json.RawMessage) string {
		cfg := gpuwalk.DefaultConfig()
		if err := json.Unmarshal(spec, &cfg); err != nil {
			t.Fatal(err)
		}
		h, err := gpuwalk.ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ring.Owner(h)
	}
	specA := chaosSpec(t, gpuwalk.FCFS, 9700)
	var specB json.RawMessage
	for s := uint64(9701); ; s++ {
		if cand := chaosSpec(t, gpuwalk.FCFS, s); owner(cand) != owner(specA) {
			specB = cand
			break
		}
		if s > 9800 {
			t.Fatal("100 seeds all hash to one node; the ring cannot be this lopsided")
		}
	}
	jA, err := client.Submit(ctx, jobd.SubmitRequest{Specs: []json.RawMessage{specA}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := waitTerminal(ctx, client, jA.ID); err != nil || v.State != jobd.StateDone {
		t.Fatalf("staging job = %+v, %v", v, err)
	}
	jB, err := client.Submit(ctx, jobd.SubmitRequest{Specs: []json.RawMessage{specB, specA}})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := waitTerminal(ctx, client, jB.ID)
	if err != nil || vB.State != jobd.StateDone {
		t.Fatalf("peered sweep = %+v, %v", vB, err)
	}
	if !vB.Items[1].CacheHit {
		t.Errorf("sweep item owned by %s was not served by peer read-through on %s",
			cluster.NodeName(owner(specA)), vB.Node)
	}

	// The rolled-up gateway /metrics shows the peer hit under the node
	// that fetched it, and every node's job counters under its label.
	resp, err := http.Get(gw.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("rolled-up /metrics does not parse: %v", err)
	}
	sumByNode := func(name string) (total float64, nodes map[string]bool) {
		nodes = make(map[string]bool)
		for _, s := range prom.Samples {
			if s.Name != name {
				continue
			}
			total += s.Value
			for _, l := range s.Labels {
				if l.Name == "node" {
					nodes[l.Value] = true
				}
			}
		}
		return total, nodes
	}
	if hits, _ := sumByNode("gpuwalkd_peer_fetch_hits_total"); hits < 1 {
		t.Errorf("rolled-up gpuwalkd_peer_fetch_hits_total = %v, want >= 1", hits)
	}
	if adopted, _ := sumByNode("gpuwalkd_cache_peer_hits_total"); adopted < 1 {
		t.Errorf("rolled-up gpuwalkd_cache_peer_hits_total = %v, want >= 1", adopted)
	}
	// Rollup labels nodes by host:port, one label value per backend.
	if _, nodes := sumByNode("jobd_jobs_submitted_total"); len(nodes) != len(nodeURLs) {
		t.Errorf("jobd_jobs_submitted_total rolled up for nodes %v, want %d nodes", nodes, len(nodeURLs))
	}

	// Warm resweep of batch one: identical ring, identical routing, so
	// every item must be a cache hit on the node that ran it — including
	// everything the victim computed before and after its restart.
	for i := 0; i < batch1; i++ {
		v, err := client.Submit(ctx, jobd.SubmitRequest{Specs: specs[i]})
		if err != nil {
			t.Fatalf("warm resweep %d: %v", i, err)
		}
		v, err = waitTerminal(ctx, client, v.ID)
		if err != nil || v.State != jobd.StateDone {
			t.Fatalf("warm resweep %d = %+v, %v", i, v, err)
		}
		if v.CacheHits != len(v.Items) {
			t.Errorf("warm resweep %d on %s: %d/%d cache hits — accepted work was lost",
				i, v.Node, v.CacheHits, len(v.Items))
		}
		for k, item := range v.Items {
			if string(item.Result) != reference(specs[i][k]) {
				t.Errorf("warm resweep %d item %d diverges from the single-node reference", i, k)
			}
		}
	}

	// Everyone shuts down cleanly.
	for _, s := range append(append([]*chaosServer(nil), servers...), gw) {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range append(append([]*chaosServer(nil), servers...), gw) {
		if err := s.cmd.Wait(); err != nil {
			t.Errorf("process %d exited uncleanly: %v\nstdout: %s", i, err, s.stdout.String())
		}
	}
}
