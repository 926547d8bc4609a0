package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program (spans inside the program
// are a later change). Times are nanoseconds since the phase started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span name's total duration and the part of it its
// children do not cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// selfTimes attributes every span's duration: self time is duration
// minus the part of the interval its child spans cover. A negative self
// time (children timed in separate calls that together ran longer than
// the parent call) is kept as measured, not clipped.
func selfTimes(spans []span) map[string]*selfTime {
	dur := make(map[int64]int64, len(spans))
	for _, s := range spans {
		dur[s.ID] = s.End - s.Start
	}
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*selfTime{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalUs += float64(dur[s.ID]) / 1e3
		st.SelfUs += float64(dur[s.ID]-child[s.ID]) / 1e3
	}
	return out
}

type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Self     map[string]*selfTime `json:"self_time_by_name"`
	Spans    []span               `json:"spans"`
}

// writeTrace writes the spans kept in memory during the traced run.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Self: selfTimes(spans), Spans: spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
