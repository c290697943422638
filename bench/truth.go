package main

import "sort"

// truthExe is the generator's ground truth for one shipped executable:
// what package build it is and where each original procedure landed.
// The analysed side never sees this (the executable ships stripped).
type truthExe struct {
	Path    string
	Pkg     string
	Version string
	Arch    string
	Procs   map[string]uint32 // original procedure name -> address
}

// truthTable is the ground truth of a generated corpus, indexed like
// SealedCorpus.Images(): Images[i] lists image i's executables.
type truthTable struct {
	Images [][]truthExe
}

func (t *truthTable) executables() int {
	n := 0
	for _, im := range t.Images {
		n += len(im)
	}
	return n
}

func (t *truthTable) exe(image int, path string) *truthExe {
	if image < 0 || image >= len(t.Images) {
		return nil
	}
	for i := range t.Images[image] {
		if t.Images[image][i].Path == path {
			return &t.Images[image][i]
		}
	}
	return nil
}

// deprecatedAlias names the procedure whose match also counts as a
// correct location of proc: libcurl 7.10 ships curl_unescape, the
// deprecated predecessor of curl_easy_unescape, and the paper counts
// finding it as a true discovery (internal/eval applies the same rule).
func deprecatedAlias(proc string) string {
	if proc == "curl_easy_unescape" {
		return "curl_unescape"
	}
	return ""
}

// correctAddrs returns the addresses in e that are correct locations of
// proc: the procedure itself — in a vulnerable or a patched version
// alike — and its deprecated predecessor.
func correctAddrs(e *truthExe, proc string) []uint32 {
	var out []uint32
	if a, ok := e.Procs[proc]; ok {
		out = append(out, a)
	}
	if alias := deprecatedAlias(proc); alias != "" {
		if a, ok := e.Procs[alias]; ok {
			out = append(out, a)
		}
	}
	return out
}

// located is one reported finding reduced to what scoring needs.
type located struct {
	Image int    `json:"image"`
	Path  string `json:"exe_path"`
	Addr  uint32 `json:"proc_addr"`
}

// score accumulates retrieval accuracy over any number of queries.
type score struct {
	// Relevant counts executables that truly contain the queried
	// procedure, Reported the findings returned, Correct the findings
	// that name a correct location.
	Relevant int `json:"relevant"`
	Reported int `json:"reported"`
	Correct  int `json:"correct"`
}

func (s *score) add(o score) {
	s.Relevant += o.Relevant
	s.Reported += o.Reported
	s.Correct += o.Correct
}

// recall is correct findings over executables that contain the
// procedure; with nothing to find it is 1.
func (s score) recall() float64 {
	if s.Relevant == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Relevant)
}

// precision is correct findings over findings reported; with nothing
// reported it is 1.
func (s score) precision() float64 {
	if s.Reported == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Reported)
}

// scoreQuery scores the findings one query for proc returned over the
// given images (nil = the whole corpus). A finding is correct when it
// names a correct address inside an executable that has one; an
// executable counts once however many findings land in it.
func (t *truthTable) scoreQuery(proc string, findings []located, images []int) score {
	if images == nil {
		images = make([]int, len(t.Images))
		for i := range images {
			images[i] = i
		}
	}
	var s score
	for _, ii := range images {
		for ei := range t.Images[ii] {
			if len(correctAddrs(&t.Images[ii][ei], proc)) > 0 {
				s.Relevant++
			}
		}
	}
	type exeKey struct {
		image int
		path  string
	}
	hit := map[exeKey]bool{}
	s.Reported = len(findings)
	for _, f := range findings {
		e := t.exe(f.Image, f.Path)
		if e == nil {
			continue
		}
		for _, a := range correctAddrs(e, proc) {
			if a == f.Addr && !hit[exeKey{f.Image, f.Path}] {
				hit[exeKey{f.Image, f.Path}] = true
				s.Correct++
			}
		}
	}
	return s
}

// sortLocated orders findings for stable comparison and output.
func sortLocated(fs []located) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Addr < b.Addr
	})
}
