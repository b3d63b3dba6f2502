package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// profileJSON is the on-disk form of a Profile. Field names follow the
// Go struct; all fields are optional except name.
type profileJSON struct {
	Name           string   `json:"name"`
	FP             bool     `json:"fp"`
	LoadFrac       *float64 `json:"loadFrac"`
	StoreFrac      *float64 `json:"storeFrac"`
	TrueDepFrac    *float64 `json:"trueDepFrac"`
	DepDistance    *int     `json:"depDistance"`
	PointerFrac    *float64 `json:"pointerFrac"`
	BranchEvery    *int     `json:"branchEvery"`
	BranchNoise    *float64 `json:"branchNoise"`
	CallFrac       *float64 `json:"callFrac"`
	FootprintWords *int     `json:"footprintWords"`
	Seed           *uint64  `json:"seed"`
	// Base names an existing benchmark whose profile seeds the defaults
	// before the overrides above apply.
	Base string `json:"base"`
}

// ParseProfile decodes a JSON profile description. Unknown fields are
// rejected so typos surface instead of silently using defaults.
func ParseProfile(data []byte) (Profile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pj profileJSON
	if err := dec.Decode(&pj); err != nil {
		return Profile{}, fmt.Errorf("workload: parsing profile: %w", err)
	}
	base := Profile{
		Name: pj.Name, FP: pj.FP,
		LoadFrac: 0.25, StoreFrac: 0.10,
		TrueDepFrac: 0.10, DepDistance: 30,
		BranchEvery: 10, BranchNoise: 0.1,
		FootprintWords: 1 << 15, Seed: 1,
	}
	if pj.Base != "" {
		b, err := ProfileByName(pj.Base)
		if err != nil {
			return Profile{}, err
		}
		name := pj.Name
		base = b
		if name != "" {
			base.Name = name
		}
		base.FP = b.FP || pj.FP
	}
	if base.Name == "" {
		return Profile{}, fmt.Errorf("workload: profile needs a name")
	}
	if pj.LoadFrac != nil {
		base.LoadFrac = *pj.LoadFrac
	}
	if pj.StoreFrac != nil {
		base.StoreFrac = *pj.StoreFrac
	}
	if pj.TrueDepFrac != nil {
		base.TrueDepFrac = *pj.TrueDepFrac
	}
	if pj.DepDistance != nil {
		base.DepDistance = *pj.DepDistance
	}
	if pj.PointerFrac != nil {
		base.PointerFrac = *pj.PointerFrac
	}
	if pj.BranchEvery != nil {
		base.BranchEvery = *pj.BranchEvery
	}
	if pj.BranchNoise != nil {
		base.BranchNoise = *pj.BranchNoise
	}
	if pj.CallFrac != nil {
		base.CallFrac = *pj.CallFrac
	}
	if pj.FootprintWords != nil {
		base.FootprintWords = *pj.FootprintWords
	}
	if pj.Seed != nil {
		base.Seed = *pj.Seed
	}
	return base, nil
}

// LoadProfile reads a JSON profile from a file.
func LoadProfile(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, err
	}
	return ParseProfile(data)
}
