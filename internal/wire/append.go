package wire

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
)

const hexDigits = "0123456789abcdef"

// AppendAnalyzeResponse appends resp, with urs as its units, to dst: the
// bytes json.Encoder writes with HTML escaping off, trailing newline
// included, for resp with Units[i] = FromUnitResult(&urs[i]). resp.Units
// is not read. Pair text and verdicts are rendered straight from the
// results, without the strings FromUnitResult builds.
func AppendAnalyzeResponse(dst []byte, resp *AnalyzeResponse, urs []corpus.UnitResult) []byte {
	pairs := 0
	for i := range urs {
		pairs += len(urs[i].Results)
	}
	// A served LargeCorpus unit takes about 165 bytes a pair: one allocation.
	dst = slices.Grow(dst, 256+192*pairs)
	dst = appendInt(dst, `{"schemaVersion":`, resp.SchemaVersion)
	if resp.BudgetClass != "" {
		dst = appendString(append(dst, `,"budgetClass":`...), resp.BudgetClass)
	}
	if resp.RequestedClass != "" {
		dst = appendString(append(dst, `,"requestedClass":`...), resp.RequestedClass)
	}
	if resp.DegradedByLoad {
		dst = append(dst, `,"degradedByLoad":true`...)
	}
	dst = append(dst, `,"units":[`...)
	for i := range urs {
		dst = appendUnit(comma(dst, i), &urs[i])
	}
	st, c := &resp.Stats, &resp.Counters
	dst = appendInt(dst, `],"stats":{"units":`, st.Units)
	dst = appendInt(dst, `,"unitsReused":`, st.UnitsReused)
	dst = appendInt(dst, `,"unitsSolved":`, st.UnitsSolved)
	dst = appendInt(dst, `,"pairsServed":`, st.PairsServed)
	dst = appendInt(dst, `,"pairsSolved":`, st.PairsSolved)
	dst = appendInt(dst, `},"counters":{"pairs":`, c.Pairs)
	dst = appendInt(dst, `,"constant":`, c.Constant)
	dst = appendInt(dst, `,"gcdIndependent":`, c.GCDIndependent)
	dst = appendInt(dst, `,"tests":`, c.Tests)
	dst = appendInt(dst, `,"independent":`, c.Independent)
	dst = appendInt(dst, `,"dependent":`, c.Dependent)
	dst = appendInt(dst, `,"unknown":`, c.Unknown)
	dst = appendInt(dst, `,"maybe":`, c.Maybe)
	dst = appendInt(dst, `,"budgetTrips":`, c.BudgetTrips)
	dst = appendInt(dst, `,"cancelledPairs":`, c.CancelledPairs)
	return append(dst, "}}\n"...)
}

// comma appends the ',' that comes before element i > 0 of a JSON list.
func comma(dst []byte, i int) []byte {
	if i > 0 {
		return append(dst, ',')
	}
	return dst
}

// appendInt appends the JSON text key, then v.
func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendUnit appends the JSON object of FromUnitResult(ur).
func appendUnit(dst []byte, ur *corpus.UnitResult) []byte {
	dst = appendString(append(dst, `{"name":`...), ur.Name)
	dst = append(appendFingerprint(append(dst, `,"fingerprint":"`...), ur.Fingerprint.Hi, ur.Fingerprint.Lo), '"')
	if ur.Reused {
		dst = append(dst, `,"reused":true`...)
	}
	if len(ur.Warnings) > 0 {
		dst = append(dst, `,"warnings":[`...)
		for i, w := range ur.Warnings {
			dst = appendString(comma(dst, i), w)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"results":[`...)
	for i := range ur.Results {
		dst = appendResult(comma(dst, i), &ur.Results[i])
	}
	return append(dst, "]}"...)
}

// appendResult appends the JSON object of fromResult(r).
func appendResult(dst []byte, r *core.Result) []byte {
	dst = append(dst, `{"pair":"`...)
	dst = closeString(appendPairText(dst, &r.Pair), len(dst)-1)
	dst = appendString(append(dst, `,"outcome":`...), r.Outcome.String())
	dst = strconv.AppendBool(append(dst, `,"exact":`...), r.Exact)
	dst = appendString(append(dst, `,"decidedBy":`...), r.DecidedBy.String())
	if r.DecidedBy == core.ByTest && r.Kind != dtest.KindNone {
		dst = appendString(append(dst, `,"kind":`...), r.Kind.String())
	}
	if r.Trip != dtest.TripNone {
		dst = appendString(append(dst, `,"trip":`...), r.Trip.String())
	}
	if len(r.Vectors) > 0 {
		dst = append(dst, `,"vectors":[`...)
		for i, v := range r.Vectors {
			dst = append(comma(dst, i), '"')
			dst = closeString(v.AppendText(dst), len(dst)-1)
		}
		dst = append(dst, ']')
	}
	if len(r.Distances) > 0 {
		dst = append(dst, `,"distances":[`...)
		for i, d := range r.Distances {
			dst = appendInt(comma(dst, i), `{"level":`, d.Level)
			dst = strconv.AppendInt(append(dst, `,"value":`...), d.Value, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPairText appends the pair's text, "a[i + 1] (write) vs a[i] (read)".
func appendPairText(dst []byte, p *ir.Pair) []byte {
	dst = p.A.Ref.AppendText(dst)
	return p.B.Ref.AppendText(append(dst, " vs "...))
}

// appendString appends s as a JSON string.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	return closeString(append(dst, s...), len(dst)-1)
}

// shortEscape[c] is the letter of control byte c's short JSON escape, or 0.
const shortEscape = "\x00\x00\x00\x00\x00\x00\x00\x00btn\x00fr"

// closeString ends the JSON string whose opening quote is dst[start] and
// whose raw text follows it. Text with nothing to escape, pair text nearly
// always, is closed where it lies. The rest of any other is escaped as
// encoding/json escapes it with HTML escaping off: '"' and '\' get a
// backslash; the control bytes \b, \f, \n, \r and \t their short escapes,
// the others \u00XX; each byte of invalid UTF-8 becomes \ufffd, and U+2028
// and U+2029 become \u2028 and \u2029. Everything else, '<', '>' and '&'
// included, is copied.
func closeString(dst []byte, start int) []byte {
	i := start + 1
	for i < len(dst) && dst[i] >= ' ' && dst[i] < utf8.RuneSelf && dst[i] != '"' && dst[i] != '\\' {
		i++
	}
	if i == len(dst) {
		return append(dst, '"')
	}
	rest := string(dst[i:])
	dst = dst[:i]
	for j := 0; j < len(rest); {
		c, size := utf8.DecodeRuneInString(rest[j:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case c == '"' || c == '\\':
			dst = append(dst, '\\', byte(c))
		case c < rune(len(shortEscape)) && shortEscape[c] != 0:
			dst = append(dst, '\\', shortEscape[c])
		case c < ' ' || c == '\u2028' || c == '\u2029':
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xf], hexDigits[c>>4&0xf], hexDigits[c&0xf])
		default:
			dst = append(dst, rest[j:j+size]...)
		}
		j += size
	}
	return append(dst, '"')
}

// appendFingerprint appends a 128-bit fingerprint as 32 hex digits, high
// half first.
func appendFingerprint(dst []byte, hi, lo uint64) []byte {
	for _, h := range [2]uint64{hi, lo} {
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[(h>>shift)&0xf])
		}
	}
	return dst
}
