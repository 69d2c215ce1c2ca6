package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"path"
	"regexp"
	"sort"
	"strings"

	"repro/internal/core"
)

// The workloads are data: one JSON file each under workloads/, compiled
// into the binary so the command runs from any directory, and discovered
// by walking that tree rather than from a list in Go.
//
//go:embed workloads
var workloadFS embed.FS

// spec is one workload file. Exactly one of Batch and Serve is set.
type spec struct {
	Name    string     `json:"name"`
	Why     string     `json:"why"`
	Dataset string     `json:"dataset"`
	Batch   *batchSpec `json:"batch"`
	Serve   *serveSpec `json:"serve"`
	// Probes names the direct layer probes (see probes.go) a traced run of
	// this workload adds, on this workload's inputs.
	Probes []string `json:"probes"`
}

// batchSpec describes a dataset-to-animation run (quakeviz / quakerank).
type batchSpec struct {
	// Transport is "real" (mpi.RunReal) or "net" (loopback mpi.RunNet).
	Transport string     `json:"transport"`
	Layout    layoutSpec `json:"layout"`
	Width     int        `json:"width"`
	Height    int        `json:"height"`
	// Steps is the dataset steps rendered per pass.
	Steps int `json:"steps"`
	// Elevation is the orbit camera's elevation in degrees; the azimuth
	// comes from the seed.
	Elevation float64 `json:"elevation"`
	// Read is "independent" or "collective".
	Read          string `json:"read"`
	AdaptiveFetch bool   `json:"adaptive_fetch"`
	// Level is the adaptive render level; 0 means full resolution.
	Level       int  `json:"level"`
	Enhancement bool `json:"enhancement"`
	Lighting    bool `json:"lighting"`
	LIC         bool `json:"lic"`
	LICSize     int  `json:"lic_size"`
	Compress    bool `json:"compress"`
}

// layoutSpec mirrors core.Layout.
type layoutSpec struct {
	Groups      int `json:"groups"`
	IPsPerGroup int `json:"ips_per_group"`
	Renderers   int `json:"renderers"`
	Outputs     int `json:"outputs"`
}

func (l layoutSpec) core() core.Layout {
	return core.Layout{Groups: l.Groups, IPsPerGroup: l.IPsPerGroup, Renderers: l.Renderers, Outputs: l.Outputs}
}

// serveSpec describes a closed-loop load on the quakeserve stack: Viewers
// clients each wait for a frame before asking for the next.
type serveSpec struct {
	Viewers int `json:"viewers"`
	Width   int `json:"width"`
	Height  int `json:"height"`
	// Plan is "hot" (requests drawn from a pre-warmed set of HotViews
	// orbit views x HotSteps steps) or "explore" (each viewer moves to a
	// never-seen azimuth, then scrubs ScrubsPerView more steps on it).
	Plan          string  `json:"plan"`
	HotViews      int     `json:"hot_views"`
	HotSteps      int     `json:"hot_steps"`
	ScrubsPerView int     `json:"scrubs_per_view"`
	Elevation     float64 `json:"elevation"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// parseSpec decodes one workload file strictly: unknown keys, trailing
// data and out-of-range values are errors, because a typo that silently
// fell back to a default would change what every later comparison runs.
func parseSpec(data []byte) (spec, error) {
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, err
	}
	if dec.More() {
		return s, fmt.Errorf("trailing data after the workload object")
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("bad workload name %q", s.Name)
	}
	if s.Why == "" || len(s.Why) > 200 || strings.ContainsAny(s.Why, "\r\n") {
		return s, fmt.Errorf("%s: why must be one line of 1..200 characters", s.Name)
	}
	if _, ok := datasets[s.Dataset]; !ok {
		return s, fmt.Errorf("%s: unknown dataset %q", s.Name, s.Dataset)
	}
	for _, p := range s.Probes {
		if _, ok := probes[p]; !ok || s.Batch == nil {
			return s, fmt.Errorf("%s: unknown probe %q (probes run on batch workloads)", s.Name, p)
		}
	}
	switch {
	case (s.Batch == nil) == (s.Serve == nil):
		return s, fmt.Errorf("%s: exactly one of batch and serve must be set", s.Name)
	case s.Batch != nil:
		b := s.Batch
		if b.Transport != "real" && b.Transport != "net" {
			return s, fmt.Errorf("%s: transport %q is not real or net", s.Name, b.Transport)
		}
		if b.Read != "independent" && b.Read != "collective" {
			return s, fmt.Errorf("%s: read %q is not independent or collective", s.Name, b.Read)
		}
		if err := b.Layout.core().Validate(); err != nil {
			return s, fmt.Errorf("%s: %w", s.Name, err)
		}
		if b.Width < 8 || b.Height < 8 || b.Steps < b.Layout.Groups+3 || b.Level < 0 || b.Level > 255 {
			return s, fmt.Errorf("%s: image size, steps or level out of range", s.Name)
		}
		if b.LIC && b.LICSize < 16 {
			return s, fmt.Errorf("%s: lic needs lic_size >= 16", s.Name)
		}
	default:
		v := s.Serve
		if v.Viewers < 1 || v.Width < 8 || v.Height < 8 {
			return s, fmt.Errorf("%s: viewers or image size out of range", s.Name)
		}
		switch v.Plan {
		case "hot":
			if v.HotViews < 1 || v.HotSteps < 1 {
				return s, fmt.Errorf("%s: hot plan needs hot_views and hot_steps", s.Name)
			}
		case "explore":
			if v.ScrubsPerView < 0 {
				return s, fmt.Errorf("%s: scrubs_per_view is negative", s.Name)
			}
		default:
			return s, fmt.Errorf("%s: plan %q is not hot or explore", s.Name, v.Plan)
		}
	}
	return s, nil
}

// loadSpecs walks the embedded workloads tree and returns every workload,
// sorted by name. Files and directories whose name starts with "." or "_"
// are skipped, so a draft can sit next to the live set.
func loadSpecs() ([]spec, error) {
	var specs []spec
	seen := map[string]string{}
	err := fs.WalkDir(workloadFS, "workloads", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := path.Base(p)
		hidden := strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")
		if d.IsDir() {
			if hidden && p != "workloads" {
				return fs.SkipDir
			}
			return nil
		}
		if hidden || !strings.HasSuffix(base, ".json") {
			return nil
		}
		data, err := workloadFS.ReadFile(p)
		if err != nil {
			return err
		}
		s, err := parseSpec(data)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if s.Name != strings.TrimSuffix(base, ".json") {
			return fmt.Errorf("%s: workload is named %q; file and workload names must match", p, s.Name)
		}
		if prev, dup := seen[s.Name]; dup {
			return fmt.Errorf("%s: workload %q already defined by %s", p, s.Name, prev)
		}
		seen[s.Name] = p
		specs = append(specs, s)
		return nil
	})
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, err
}

// findSpec returns the named workload.
func findSpec(name string) (spec, error) {
	specs, err := loadSpecs()
	if err != nil {
		return spec{}, err
	}
	var names []string
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
