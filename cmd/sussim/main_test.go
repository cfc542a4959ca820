package main

import (
	"testing"

	"suss"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"2MB":   2 << 20,
		"512KB": 512 << 10,
		"1GB":   1 << 30,
		"100B":  100,
		"100":   100,
		"1.5MB": 1.5 * (1 << 20),
		" 4mb ": 4 << 20,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "MB", "-1MB", "0", "xMB", "NaNMB", "InfKB", "1e30GB", "0.5B", "1e-9MB"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) should fail", bad)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	cases := map[string]suss.Algorithm{
		"cubic":      suss.CUBIC,
		"suss":       suss.CUBICWithSUSS,
		"cubic+suss": suss.CUBICWithSUSS,
		"BBR":        suss.BBRv1,
		"bbrv1":      suss.BBRv1,
		"bbr2":       suss.BBRv2Lite,
		"BBRv2":      suss.BBRv2Lite,
		"reno":       suss.Reno,
	}
	for in, want := range cases {
		got, err := parseAlgo(in)
		if err != nil {
			t.Errorf("parseAlgo(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseAlgo(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := parseAlgo("vegas"); err == nil {
		t.Error("unknown algorithm should fail")
	}
}
