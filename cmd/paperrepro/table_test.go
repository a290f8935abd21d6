package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"specdsm"
)

// TestExperimentTableConsistency checks every copy of the experiment
// list a reader sees against specdsm.Experiments: the -only list and
// the -checkpoint file list of `paperrepro -h`, and the README's
// `paperrepro -only` table (names in order, and each row's checkpoint
// files).
func TestExperimentTableConsistency(t *testing.T) {
	var names, ckpts []string
	files := map[string][]string{} // experiment name → its rows' checkpoint suffixes
	for _, e := range specdsm.Experiments() {
		if !slices.Contains(names, e.Name) {
			names = append(names, e.Name)
		}
		if e.Study != "" {
			files[e.Name] = append(files[e.Name], e.Study)
			if !slices.Contains(ckpts, e.Study) {
				ckpts = append(ckpts, e.Study)
			}
		}
	}

	var help strings.Builder
	if _, err := parseOptions([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	only := regexp.MustCompile(`run one experiment: (\S+)`).FindStringSubmatch(help.String())
	if want := strings.Join(names, ","); only == nil || only[1] != want {
		t.Errorf("-only help lists %q, want %q", only, want)
	}
	ck := regexp.MustCompile(`under this base path \(([^)]*)\)`).FindStringSubmatch(help.String())
	if want := "PATH." + strings.Join(ckpts, ", PATH."); ck == nil || ck[1] != want {
		t.Errorf("-checkpoint help lists %q, want %q", ck, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| `paperrepro -only` |")
	if !ok {
		t.Fatal("README has no `paperrepro -only` table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	path := regexp.MustCompile("`PATH\\.(\\w+)`")
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		rows = append(rows, name)
		var got []string
		for _, m := range path.FindAllStringSubmatch(cells[len(cells)-2], -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, files[name]) {
			t.Errorf("README row %s names checkpoint files %q, want %q", name, got, files[name])
		}
	}
	if !slices.Equal(rows, names) {
		t.Errorf("README table lists %q, want %q", rows, names)
	}
}
