package measuredb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// The append-based row encoders replaced json.Encoder on the streaming
// paths; their bytes must stay indistinguishable on the wire. These
// tests render the same rows both ways and require byte equality —
// HTML escaping, U+2028/U+2029, U+FFFD replacement, the f/e float
// boundary with exponent trimming, RFC 3339 nano timestamps, and
// omitempty field dropping all included.

var encodeStrings = []string{
	"",
	"temperature",
	"urn:district:turin/building:b001/device:d0",
	`quote " backslash \ slash /`,
	"tabs\tand\nnewlines\rand\x00controls\x1f",
	"html <script> & friends >",
	"line sep \u2028 para sep \u2029",
	"smileys 😀 and accents é ü",
	"invalid utf8 \xff\xc3\x28 tail",
	"lone high surrogate \xed\xa0\x80 bytes",
	"ends mid-rune \xc3",
}

var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 21.5, -273.15,
	0.1, 1.0 / 3.0,
	1e-7, 9.999999e-7, 1e-6, // the 'e' format lower boundary
	1e20, 9.99999999e20, 1e21, 1e22, // and the upper one
	5e-324, math.MaxFloat64, -math.MaxFloat64,
	123456789012345, 1234567890123456, 12345678901234567,
	3.141592653589793, 2.718281828459045e-100,
}

var encodeTimes = []time.Time{
	{},
	time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC),
	time.Date(2015, 3, 9, 10, 0, 0, 123456789, time.UTC),
	time.Date(2015, 3, 9, 10, 0, 0, 120000000, time.UTC),
	time.Date(2015, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 90*60)),
	time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 0, time.FixedZone("", -11*3600)),
}

// oracleLine renders v exactly as the streaming paths used to: one
// json.Encoder row, trailing newline included.
func oracleLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

func TestAppendPointNDJSONMatchesEncoder(t *testing.T) {
	var rows []Point
	for _, s := range encodeStrings {
		rows = append(rows,
			Point{Device: s, Quantity: "q", At: encodeTimes[1], Value: 1},
			Point{Device: "d", Quantity: s, At: encodeTimes[1], Value: 1})
	}
	for _, f := range encodeFloats {
		rows = append(rows, Point{Device: "d", Quantity: "q", At: encodeTimes[1], Value: f})
	}
	for _, at := range encodeTimes {
		rows = append(rows, Point{Device: "d", Quantity: "q", At: at, Value: 1})
	}
	rows = append(rows, Point{}) // both strings omitted via omitempty
	for _, p := range rows {
		got := appendPointNDJSON(nil, p)
		want := oracleLine(t, p)
		if !bytes.Equal(got, want) {
			t.Errorf("Point %+v:\nappend:  %q\nencoder: %q", p, got, want)
		}
	}
}

func TestAppendBatchSampleRowMatchesEncoder(t *testing.T) {
	type sample struct {
		selector int
		device   string
		quantity string
		at       time.Time
		value    float64
	}
	var rows []sample
	for i, s := range encodeStrings {
		rows = append(rows,
			sample{i, s, "q", encodeTimes[1], 1},
			sample{i, "d", s, encodeTimes[1], 1})
	}
	for _, f := range encodeFloats {
		rows = append(rows, sample{3, "d", "q", encodeTimes[1], f})
	}
	for _, at := range encodeTimes {
		rows = append(rows, sample{-7, "d", "q", at, 0})
	}
	rows = append(rows, sample{0, "", "", encodeTimes[1], 2.5})
	for _, r := range rows {
		got := appendBatchSampleRow(nil, r.selector, r.device, r.quantity, r.at, r.value)
		at, v := r.at, r.value
		want := oracleLine(t, BatchRow{Selector: r.selector, Device: r.device, Quantity: r.quantity, At: &at, Value: &v})
		if !bytes.Equal(got, want) {
			t.Errorf("row %+v:\nappend:  %q\nencoder: %q", r, got, want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range encodeStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("string %q:\nappend:  %q\nmarshal: %q", s, got, want)
		}
	})
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range encodeFloats {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip() // json refuses these; the value plane cannot produce them
		}
		got := appendJSONFloat(nil, v)
		want, err := json.Marshal(v)
		if err != nil {
			t.Skip()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("float %x (%g):\nappend:  %q\nmarshal: %q", math.Float64bits(v), v, got, want)
		}
	})
}

// unencodablePoints are rows json.Marshal refuses; the exported
// appenders must refuse the same ones.
var unencodablePoints = []Point{
	{Device: "d", Quantity: "q", At: encodeTimes[1], Value: math.NaN()},
	{Device: "d", Quantity: "q", At: encodeTimes[1], Value: math.Inf(1)},
	{Device: "d", Quantity: "q", At: encodeTimes[1], Value: math.Inf(-1)},
	{Device: "d", Quantity: "q", At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
	{Device: "d", Quantity: "q", At: time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC), Value: 1},
	{Device: "d", Quantity: "q", At: time.Date(2015, 3, 9, 0, 0, 0, 0, time.FixedZone("", 24*3600)), Value: 1},
	{Device: "d", Quantity: "q", At: time.Date(2015, 3, 9, 0, 0, 0, 0, time.FixedZone("", -30*3600)), Value: 1},
}

// checkBatchAppenders holds AppendIngestBatch, AppendSeriesAppend and
// AppendPoint to json.Marshal of the same rows: equal bytes when it
// succeeds, an error (and b unextended) when it fails.
func checkBatchAppenders(t *testing.T, rows []Point) {
	t.Helper()
	prefix := []byte("prefix")
	check := func(name string, got []byte, err error, want []byte, werr error) {
		t.Helper()
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: error %v, json.Marshal error %v (rows %+v)", name, err, werr, rows)
		}
		if werr != nil {
			want = prefix
		} else {
			want = append(append([]byte(nil), prefix...), want...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\nappend:  %q\nmarshal: %q", name, got, want)
		}
	}
	got, err := AppendIngestBatch(bytes.Clone(prefix), rows)
	want, werr := json.Marshal(IngestBatch{Rows: rows})
	check("AppendIngestBatch", got, err, want, werr)
	got, err = AppendSeriesAppend(bytes.Clone(prefix), rows)
	want, werr = json.Marshal(SeriesAppend{Samples: rows})
	check("AppendSeriesAppend", got, err, want, werr)
	for _, p := range rows {
		got, err = AppendPoint(bytes.Clone(prefix), p)
		want, werr = json.Marshal(p)
		check("AppendPoint", got, err, want, werr)
	}
}

func TestAppendIngestBatchMatchesMarshal(t *testing.T) {
	var rows []Point
	for _, s := range encodeStrings {
		rows = append(rows, Point{Device: s, Quantity: s, At: encodeTimes[2], Value: 1})
	}
	for i, f := range encodeFloats {
		rows = append(rows, Point{Device: "d", Quantity: "q", At: encodeTimes[i%len(encodeTimes)], Value: f})
	}
	rows = append(rows, Point{},
		Point{At: time.Date(2015, 3, 9, 0, 0, 0, 0, time.FixedZone("", 24*3600-1)), Value: 1},
		Point{At: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)})
	checkBatchAppenders(t, nil)
	checkBatchAppenders(t, []Point{})
	checkBatchAppenders(t, rows)
	for _, bad := range unencodablePoints {
		checkBatchAppenders(t, []Point{rows[0], bad, rows[1]})
	}
}

func FuzzAppendIngestBatch(f *testing.F) {
	f.Add("urn:d", "temperature", int64(1425895200), int64(0), 0, 21.5)
	f.Add("html <&>", "\u2028", int64(-62135596800), int64(1), 90*60, 1e21)
	f.Add("d", "q", int64(253402300800), int64(0), 0, 1.0)
	f.Add("d", "q", int64(0), int64(0), 24*3600, math.NaN())
	f.Fuzz(func(t *testing.T, device, quantity string, sec, nsec int64, offset int, v float64) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", offset))
		p := Point{Device: device, Quantity: quantity, At: at, Value: v}
		checkBatchAppenders(t, []Point{p, {Device: "d", Quantity: "q", At: encodeTimes[1], Value: 2}, p})
	})
}
