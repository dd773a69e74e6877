// Fecpipe: the §5.2 experiment. A (5,1) Reed–Solomon erasure code — one
// parity per five data packets, enough for 20% independent loss — is
// pushed through a single simulated Internet path whose losses are bursty
// and correlated (CLP ≈ 70%). Sent back-to-back, a whole code group dies
// inside one loss burst, so the code recovers nothing: post-FEC loss
// equals the raw 2.06%. Interleaving the group across time recovers
// losses, but slowly: at a 500 ms spread post-FEC loss is 1.39% against
// 2.16% raw (36% recovered), at 2 s it is 0.46% against 2.11% (78%).
//
// Known deviation: the paper argues that "the FEC information must be
// spread out by nearly half a second"; on this channel half a second
// recovers about a third of the losses, not most of them, and it takes
// about 2 s to recover most. The reason is the spacing, not the span:
// six packets over 500 ms sit 100 ms apart, less than the channel's
// mean 150 ms burst, and burst lengths are exponential, so a burst that
// claims one packet still covers the next about half the time
// (e^(-100/150) ≈ 0.5). Only gaps several bursts long (400 ms at a 2 s
// spread) leave each burst the one packet the parity can repair.
//
//	go run ./examples/fecpipe
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/fec"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func main() { run(os.Stdout) }

// run prints the experiment's table and conclusion to w.
func run(w io.Writer) {
	tb := topo.RON2003()
	src, dst := tb.Index("MIT"), tb.Index("Korea")
	route := netsim.Direct(src, dst)

	code, err := fec.NewCode(5, 1)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "(5,1) systematic RS code on the simulated %s→%s path\n",
		tb.Host(src).Name, tb.Host(dst).Name)
	fmt.Fprintf(w, "%-14s %12s %12s %14s\n",
		"group spread", "raw loss %", "post-FEC %", "groups killed")

	for _, spread := range []time.Duration{
		0, 10 * time.Millisecond, 50 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond,
		2 * time.Second, 10 * time.Second,
	} {
		// A fresh same-seed network per spread: every run sees the
		// identical burst trajectory, so only the scheduling differs.
		nw := netsim.New(tb, burstsOnlyProfile(), 11)
		rawLost, postLost, groupsDead, groups := push(nw, route, code, spread)
		fmt.Fprintf(w, "%-14v %11.2f%% %11.2f%% %9d/%d\n",
			spread, rawLost, postLost, groupsDead, groups)
	}

	fmt.Fprintln(w, "\nSpreading the group decouples its packets from the burst that")
	fmt.Fprintln(w, "claimed the first loss — at the cost of that much added recovery")
	fmt.Fprintln(w, "delay, which §5.2 notes erases the latency advantage for")
	fmt.Fprintln(w, "interactive traffic. Multi-second congestion events still defeat")
	fmt.Fprintln(w, "any practical spread: FEC without path diversity \"cannot tolerate")
	fmt.Fprintln(w, "large burst losses or path failures\" (§5.2).")
}

// burstsOnlyProfile strips outages, congestion episodes, and global
// weather from the calibrated substrate, leaving only the Gilbert–Elliott
// burst processes whose correlation §5.2 reasons about, scaled up so the
// effect is measurable in a short run.
func burstsOnlyProfile() *netsim.Profile {
	prof := netsim.DefaultProfile()
	prof.LossScale = 8
	prof.Global = netsim.GlobalParams{}
	strip := func(cp netsim.ComponentParams) netsim.ComponentParams {
		cp.MeanUp = 1000000 * time.Hour // no outages
		cp.EpisodeEvery = 0
		cp.LatEpisodeEvery = 0
		// Burst persistence of the channel §5.2 reasons about: a
		// single mode, exponential with mean 150 ms.
		cp.ShortWeight = 0
		cp.MeanBadLong = 150 * time.Millisecond
		return cp
	}
	for class, cp := range prof.AccessParams {
		prof.AccessParams[class] = strip(cp)
	}
	prof.BackboneBase = strip(prof.BackboneBase)
	prof.BackboneIntl = strip(prof.BackboneIntl)
	prof.BackboneFar = strip(prof.BackboneFar)
	return prof
}

// push sends groups through the path, interleaving each group's six
// packets evenly across `spread`. A group survives if at least 5 of its
// 6 packets arrive (any 5 reconstruct the data).
func push(nw *netsim.Network, route netsim.Route, code *fec.Code,
	spread time.Duration) (rawPct, postPct float64, groupsDead, groups int) {
	n := code.K() + code.M()
	sched, err := fec.EvenSpread(n, spread)
	if err != nil {
		panic(err)
	}
	const total = 4000
	// Interleaved groups overlap in time, so build the full schedule and
	// send in global time order — the simulator evolves its components
	// forward only.
	type job struct {
		at    netsim.Time
		group int
	}
	jobs := make([]job, 0, total*n)
	for g := 0; g < total; g++ {
		// Groups depart every 250 ms of virtual time.
		t := netsim.Time(g) * netsim.Time(250*time.Millisecond)
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{t + netsim.FromDuration(sched.Offsets[i]), g})
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })

	var rawLost, dataLostAfterFEC int
	arrived := make([]int, total)
	for _, j := range jobs {
		if out := nw.Send(j.at, route); out.Delivered {
			arrived[j.group]++
		} else {
			rawLost++
		}
	}
	for g := 0; g < total; g++ {
		if arrived[g] < code.K() {
			groupsDead++
			dataLostAfterFEC += n - arrived[g]
		}
	}
	packets := total * n
	return 100 * float64(rawLost) / float64(packets),
		100 * float64(dataLostAfterFEC) / float64(packets),
		groupsDead, total
}
