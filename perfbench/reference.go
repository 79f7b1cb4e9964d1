package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// defaultSeed is the seed the stored reference was recorded at.
const defaultSeed = 1

// cellRef is one cell's virtual record: deterministic outputs that must
// repeat exactly in every pass and, at the default seed, equal the
// stored reference. Zero fields do not apply to the cell's kind.
type cellRef struct {
	ExecNs     int64 `json:"exec_ns"`
	Msgs       int64 `json:"msgs,omitempty"`
	Bytes      int64 `json:"bytes,omitempty"`
	DirBytes   int64 `json:"dir_bytes,omitempty"`
	RecoverNs  int64 `json:"recover_ns,omitempty"`
	Events     int64 `json:"events,omitempty"`
	Boundaries int64 `json:"boundaries,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	Completed  int64 `json:"completed,omitempty"`
	UnavailNs  int64 `json:"unavail_ns,omitempty"`
	// Fingerprint hashes an explorer run's event stream and memory, or
	// a serving cell's full report (histogram, percentiles, timeline).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// referenceJSON maps workload -> cell key -> the cell's record at the
// default seed and full length.
//
//go:embed reference.json
var referenceJSON []byte

func storedReference() (map[string]map[string]cellRef, error) {
	var ref map[string]map[string]cellRef
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// diffCells lists every cell whose record differs between want and
// got, or that only one of them has.
func diffCells(want, got map[string]cellRef) []string {
	var out []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: missing", k))
		case g != w:
			out = append(out, fmt.Sprintf("%s: got %+v, want %+v", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: not in the reference", k))
		}
	}
	sort.Strings(out)
	return out
}
