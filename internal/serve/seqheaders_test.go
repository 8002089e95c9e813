package serve

import (
	"encoding/base64"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"testing"
)

// FuzzSeqHeaders drives parseSeqHeaders with arbitrary X-Titan-Seq-Base
// and X-Titan-Seq-Mask values. lines < 0 stands for "the mask's own
// popcount", so the fuzzer reaches the acceptance path for any decodable
// mask. Properties: no panic; an accepted tagged batch has one position
// per line (the mask popcount), positions ascend strictly, and no line's
// sequence base + position wraps past 2^64 — the wrapped value would be
// a bogus alert-feed dedup key.
func FuzzSeqHeaders(f *testing.F) {
	f.Add("", "", 0)
	f.Add("0", "AQ==", 1)
	f.Add("1000", "Bg==", -1)
	f.Add("42", "/w==", 3)
	f.Add("18446744073709551615", "AQ==", 1)
	f.Add("18446744073709551615", "Ag==", 1)
	f.Add("18446744073709551614", "AAE=", -1)
	f.Add("-1", "AQ==", 1)
	f.Add("7", "not base64", 1)
	f.Add("", "AQ==", 1)
	f.Fuzz(func(t *testing.T, base, mask string, lines int) {
		raw, decodeErr := base64.StdEncoding.DecodeString(mask)
		popcount := 0
		for _, b := range raw {
			popcount += bits.OnesCount8(b)
		}
		if lines < 0 {
			lines = popcount
		}
		r := &http.Request{Header: http.Header{}}
		if base != "" {
			r.Header.Set(SeqBaseHeader, base)
		}
		if mask != "" {
			r.Header.Set(SeqMaskHeader, mask)
		}
		gotBase, positions, err := parseSeqHeaders(r, lines)
		if err != nil {
			return
		}
		if base == "" && mask == "" {
			if gotBase != 0 || positions != nil {
				t.Fatalf("untagged batch got base %d positions %v", gotBase, positions)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("accepted undecodable mask %q", mask)
		}
		if want, err := strconv.ParseUint(base, 10, 64); err != nil || gotBase != want {
			t.Fatalf("base %q accepted as %d", base, gotBase)
		}
		if len(positions) != lines || popcount != lines {
			t.Fatalf("accepted %d positions, mask popcount %d, for %d lines", len(positions), popcount, lines)
		}
		for i := 1; i < len(positions); i++ {
			if positions[i] <= positions[i-1] {
				t.Fatalf("positions not strictly ascending: %v", positions)
			}
		}
		if n := len(positions); n > 0 {
			if last := uint64(positions[n-1]); gotBase > math.MaxUint64-last {
				t.Fatalf("base %d + position %d wraps", gotBase, last)
			}
		}
	})
}
