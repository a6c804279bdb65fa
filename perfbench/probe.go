package main

import (
	"time"

	"neutronstar/internal/comm"
	"neutronstar/internal/tensor"
)

// probeRTT times Fabric.Send → Mailbox.Wait round trips between two workers
// on the given profile with messages of about size wire bytes, and returns
// the median in microseconds.
func probeRTT(profile comm.NetworkProfile, size int) float64 {
	const cols, trips = 16, 41
	f := comm.NewFabric(2, profile, nil)
	defer f.Close()
	rows := max((size-64)/(4*cols), 1)
	payload := tensor.New(rows, cols)
	rtts := make([]float64, trips)
	for i := range rtts {
		t0 := time.Now()
		f.Send(&comm.Message{From: 0, To: 1, Kind: comm.KindRep, Epoch: i, Rows: payload})
		m := f.Mailbox(1).Wait(comm.KindRep, i, 0, 0, 0)
		f.Send(&comm.Message{From: 1, To: 0, Kind: comm.KindGrad, Epoch: i, Rows: m.Rows})
		f.Mailbox(0).Wait(comm.KindGrad, i, 0, 0, 1)
		rtts[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(rtts)
}

// probeGEMM times tensor.MatMulInto at one rows×k · k×n shape for about
// 200 ms and returns the median rate in GFLOP/s.
func probeGEMM(rows, k, n int) float64 {
	rng := tensor.NewRNG(1)
	a := tensor.RandNormal(rows, k, 0, 1, rng)
	b := tensor.RandNormal(k, n, 0, 1, rng)
	dst := tensor.New(rows, n)
	flops := 2 * float64(rows) * float64(k) * float64(n)
	var rates []float64
	for start := time.Now(); len(rates) < 5 || time.Since(start) < 200*time.Millisecond; {
		t0 := time.Now()
		tensor.MatMulInto(dst, a, b)
		rates = append(rates, flops/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}
