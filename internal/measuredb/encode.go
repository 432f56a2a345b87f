package measuredb

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Hand-rolled NDJSON row encoders for the streaming read plane. The
// per-row cost of json.Encoder (reflection, interface boxing, the
// pointer fields of BatchRow) dominated the query hot path; these
// append into one pooled buffer per response and produce byte-identical
// output to encoding/json (HTML escaping, U+2028/U+2029, the float
// exponent cleanup, RFC 3339 nano timestamps), so switching a stream
// consumer between releases sees no wire change.

// rowBuf is one response's reusable row-encode buffer.
type rowBuf struct{ b []byte }

var rowBufPool = sync.Pool{New: func() any { return &rowBuf{b: make([]byte, 0, 256)} }}

func getRowBuf() *rowBuf { return rowBufPool.Get().(*rowBuf) }

// maxPooledRowBuf caps what returns to the pool; one giant device URI
// should not pin its high-water mark forever.
const maxPooledRowBuf = 64 << 10

func putRowBuf(buf *rowBuf) {
	if cap(buf.b) <= maxPooledRowBuf {
		rowBufPool.Put(buf)
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// encodes it: control characters, '"', '\\', the HTML set (&, <, >),
// and U+2028/U+2029 escaped; invalid UTF-8 bytes rendered as the
// six-byte escape `\ufffd` (the encoder escapes the replacement rune,
// it does not emit it literally).
//
// districtlint:hotpath
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json encodes float64
// values: shortest form, 'e' notation outside [1e-6, 1e21) with the
// two-digit exponent's leading zero trimmed.
//
// districtlint:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONTime appends t as time.Time.MarshalJSON would (quoted
// RFC 3339 with nanoseconds).
//
// districtlint:hotpath
func appendJSONTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// appendPoint appends p as json.Marshal(p) encodes it. Device and
// quantity carry omitempty, so empty values vanish just as they would
// through reflection. The caller vouches that p is encodable (see
// AppendPoint): rows the scanner decoded always are.
//
// districtlint:hotpath
func appendPoint(b []byte, p Point) []byte {
	b = append(b, '{')
	if p.Device != "" {
		b = append(b, `"device":`...)
		b = appendJSONString(b, p.Device)
		b = append(b, ',')
	}
	if p.Quantity != "" {
		b = append(b, `"quantity":`...)
		b = appendJSONString(b, p.Quantity)
		b = append(b, ',')
	}
	b = append(b, `"at":`...)
	b = appendJSONTime(b, p.At)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, p.Value)
	return append(b, '}')
}

// appendPointNDJSON appends one streamed samples row (a Point with the
// series named on it) plus the newline json.Encoder terminates rows
// with.
//
// districtlint:hotpath
func appendPointNDJSON(b []byte, p Point) []byte {
	return append(appendPoint(b, p), '\n')
}

var (
	errNonFiniteValue = errors.New("measuredb: NaN or infinite value has no JSON form")
	errTimeRange      = errors.New("measuredb: timestamp has no RFC 3339 form (year outside [0,9999] or zone offset of 24h or more)")
)

// AppendPoint appends p exactly as json.Marshal(p) encodes it, and
// fails exactly where json.Marshal fails: on a NaN or infinite value,
// or on a timestamp time.Time.MarshalJSON refuses. On failure b comes
// back unextended.
//
// districtlint:hotpath
func AppendPoint(b []byte, p Point) ([]byte, error) {
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		return b, errNonFiniteValue
	}
	if y := p.At.Year(); y < 0 || y > 9999 {
		return b, errTimeRange
	}
	// RFC 3339 writes the offset as ±hh:mm, hours truncated.
	if _, off := p.At.Zone(); off <= -24*3600 || off >= 24*3600 {
		return b, errTimeRange
	}
	return appendPoint(b, p), nil
}

// AppendIngestBatch appends the POST /v2/ingest body for rows, byte for
// byte json.Marshal(IngestBatch{Rows: rows}), failing where it fails.
func AppendIngestBatch(b []byte, rows []Point) ([]byte, error) {
	return appendRowsBody(b, `{"rows":`, rows)
}

// AppendSeriesAppend appends the PUT /v2/.../samples body for samples,
// byte for byte json.Marshal(SeriesAppend{Samples: samples}), failing
// where it fails.
func AppendSeriesAppend(b []byte, samples []Point) ([]byte, error) {
	return appendRowsBody(b, `{"samples":`, samples)
}

// appendRowsBody appends a one-field object whose value is rows.
//
// districtlint:hotpath
func appendRowsBody(b []byte, head string, rows []Point) ([]byte, error) {
	n0 := len(b)
	b = append(b, head...)
	if rows == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendPoint(b, rows[i]); err != nil {
			return b[:n0], err
		}
		if i == 0 {
			// Size the body on its first row: one allocation for a fresh
			// buffer instead of append's growth steps.
			b = slices.Grow(b, (len(b)-n0)*(len(rows)-1)+2)
		}
	}
	return append(b, ']', '}'), nil
}

// appendBatchSampleRow appends one raw-sample row of an NDJSON batch
// stream: the BatchRow shape with only the sample fields set.
//
// districtlint:hotpath
func appendBatchSampleRow(b []byte, selector int, device, quantity string, at time.Time, v float64) []byte {
	b = append(b, `{"selector":`...)
	b = strconv.AppendInt(b, int64(selector), 10)
	if device != "" {
		b = append(b, `,"device":`...)
		b = appendJSONString(b, device)
	}
	if quantity != "" {
		b = append(b, `,"quantity":`...)
		b = appendJSONString(b, quantity)
	}
	b = append(b, `,"at":`...)
	b = appendJSONTime(b, at)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, v)
	return append(b, '}', '\n')
}
