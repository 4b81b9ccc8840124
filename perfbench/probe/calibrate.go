package main

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"time"
)

// calNode mimics a netlist record: a pointer to the next record, an
// interned-looking name and a small pin map.
type calNode struct {
	next *calNode
	name string
	pins map[string]int
}

type calibrateReq struct {
	Reps int `json:"reps"`
}

// calibrate times a fixed kernel that uses the host the way the flow does:
// it allocates 100k small records with maps and strings, links them in a
// random order and walks the chain, so its time follows the host's current
// speed for allocation, GC and cache-missing pointer walks. The kernel uses
// no code of the program, so a change to the program never moves it. The
// answer lists the seconds of each repetition.
func calibrate(raw []byte) (any, error) {
	var req calibrateReq
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(1))
	out := struct {
		Seconds []float64 `json:"seconds"`
		Sum     int       `json:"sum"`
	}{}
	for rep := 0; rep < req.Reps; rep++ {
		t0 := time.Now()
		nodes := make([]*calNode, 100000)
		for i := range nodes {
			nodes[i] = &calNode{name: "n" + strconv.Itoa(i), pins: map[string]int{"A": i, "Z": i + 1}}
		}
		perm := r.Perm(len(nodes))
		for i := 1; i < len(perm); i++ {
			nodes[perm[i-1]].next = nodes[perm[i]]
		}
		for p := nodes[perm[0]]; p != nil; p = p.next {
			out.Sum += p.pins["A"] + len(p.name)
		}
		out.Seconds = append(out.Seconds, time.Since(t0).Seconds())
	}
	return out, nil
}
