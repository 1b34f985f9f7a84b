package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// The wire codec of the four float-carrying bodies: GEMMRequest,
// BatchRequest, MultiplyResponse and a successful BatchLine. Almost all
// of a served request's bytes are decimal floats, and encoding/json
// spends about three times the strconv conversion itself on reflection
// and scanning, so these bodies are written and read here in one pass.
//
// Writing is byte-identical to encoding/json: the same key order,
// omitempty rules and float32 format. A ±Inf or NaN makes an encoder
// decline; the caller then falls back to encoding/json, which refuses
// the value the way it always did. So does a nil slice, which
// encoding/json writes as a null the reader would not take back.
//
// Reading only ever accepts. The reader takes whitespace, exact-case
// unescaped keys in any order (a repeated key overwrites), integer
// literals for the int fields and arrays of number literals for the
// float fields, and makes the same strconv call encoding/json makes on
// each literal. On anything else — null, a string, an unknown or
// case-folded key, a literal out of range, a syntax error — it declines
// and encoding/json decodes the same bytes, so every accept/reject
// decision and every error text stays encoding/json's.

// appendFloats appends xs as encoding/json writes a []float32, or
// reports false at the first ±Inf or NaN. It declines a nil xs too:
// encoding/json writes null, which the reader leaves to encoding/json.
func appendFloats(b []byte, xs []float32) ([]byte, bool) {
	if xs == nil {
		return b, false
	}
	b = append(slices.Grow(b, 2+12*len(xs)), '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		f := float64(x)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return b, false
		}
		// encoding/json's float32 rule: %f, or %e outside [1e-6, 1e21),
		// with the exponent's leading zero dropped (e-09 → e-9).
		format := byte('f')
		if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 32)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, ']'), true
}

func appendIntField(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// size estimates g's encoded length, for presizing.
func (g *GEMMRequest) size() int { return 128 + 12*(len(g.A)+len(g.B)+len(g.C)) }

// appendJSON appends g as json.Marshal writes it, or reports false when
// an operand holds ±Inf or NaN, or A or B is nil.
func (g *GEMMRequest) appendJSON(b []byte) ([]byte, bool) {
	b = slices.Grow(b, g.size())
	b = appendIntField(b, `{"m":`, g.M)
	b = appendIntField(b, `,"n":`, g.N)
	b = appendIntField(b, `,"k":`, g.K)
	b, ok := appendFloats(append(b, `,"a":`...), g.A)
	if !ok {
		return b, false
	}
	if b, ok = appendFloats(append(b, `,"b":`...), g.B); !ok {
		return b, false
	}
	if len(g.C) > 0 {
		if b, ok = appendFloats(append(b, `,"c":`...), g.C); !ok {
			return b, false
		}
	}
	if g.DeadlineMs != 0 {
		b = appendIntField(b, `,"deadlineMs":`, g.DeadlineMs)
	}
	return append(b, '}'), true
}

// appendJSON appends q as json.Marshal writes it, or reports false when
// an operand holds ±Inf or NaN, or a slice is nil.
func (q *BatchRequest) appendJSON(b []byte) ([]byte, bool) {
	if q.Elements == nil {
		return b, false
	}
	n := 0
	for i := range q.Elements {
		n += q.Elements[i].size()
	}
	b = append(slices.Grow(b, 16+n), `{"elements":[`...)
	for i := range q.Elements {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = q.Elements[i].appendJSON(b); !ok {
			return b, false
		}
	}
	return append(b, "]}"...), true
}

// appendJSON appends r as json.Marshal writes it, or reports false when
// C holds ±Inf or NaN or is nil.
func (r *MultiplyResponse) appendJSON(b []byte) ([]byte, bool) {
	b, ok := appendFloats(append(b, `{"c":`...), r.C)
	return append(b, '}'), ok
}

// appendJSON appends a successful line as json.Marshal writes it. It
// declines a line with an error or a status, and a C holding ±Inf or
// NaN.
func (l *BatchLine) appendJSON(b []byte) ([]byte, bool) {
	if l.Error != "" || l.Status != 0 {
		return b, false
	}
	b = appendIntField(b, `{"index":`, l.Index)
	if len(l.C) > 0 {
		var ok bool
		if b, ok = appendFloats(append(b, `,"c":`...), l.C); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// wireBody is a body the one-pass encoder writes.
type wireBody interface {
	appendJSON(b []byte) ([]byte, bool)
}

// writeWire writes wb's JSON and a newline, as json.Encoder does, in one
// Write from a pooled buffer. It writes nothing and reports false when
// the encoder declines.
func writeWire(w io.Writer, wb wireBody) bool {
	bp := getBuf()
	defer putBuf(bp)
	b, ok := wb.appendJSON((*bp)[:0])
	if ok {
		b = append(b, '\n')
		w.Write(b)
	}
	*bp = b
	return ok
}

// marshal is json.Marshal, by the one-pass encoder where it can.
func marshal(v interface{}) ([]byte, error) {
	if wb, ok := v.(wireBody); ok {
		if b, ok := wb.appendJSON(nil); ok {
			return b, nil
		}
	}
	return json.Marshal(v)
}

// wireReader is the one-pass reader over one body held whole in b.
// presized counts the floats its capacity hints have reserved so far.
type wireReader struct {
	b        []byte
	i        int
	presized int
}

func (r *wireReader) space() {
	for ; r.i < len(r.b); r.i++ {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.space()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (r *wireReader) end() bool {
	r.space()
	return r.i == len(r.b)
}

// object reads one JSON object, handing each key to field with the
// reader at its value. Only ASCII keys without escapes are taken.
func (r *wireReader) object(field func(key []byte) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	for {
		if !r.next('"') {
			return false
		}
		start := r.i
		for r.i < len(r.b) && r.b[r.i] != '"' {
			if c := r.b[r.i]; c == '\\' || c < 0x20 || c >= 0x80 {
				return false
			}
			r.i++
		}
		if r.i == len(r.b) {
			return false
		}
		key := r.b[start:r.i]
		r.i++
		if !r.next(':') || !field(key) {
			return false
		}
		if !r.next(',') {
			return r.next('}')
		}
	}
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number consumes one literal of the JSON number grammar — only its
// integer part when integer is set — and returns it.
func (r *wireReader) number(integer bool) ([]byte, bool) {
	r.space()
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := digits(b, i); j > i {
		i = j
	} else {
		return nil, false
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			j := digits(b, i+1)
			if j == i+1 {
				return nil, false
			}
			i = j
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			j := digits(b, i)
			if j == i {
				return nil, false
			}
			i = j
		}
	}
	lit := b[r.i:i]
	r.i = i
	return lit, true
}

// int reads an integer literal into an int field, as encoding/json
// does: strconv.ParseInt, refused if out of the int range.
func (r *wireReader) int() (int, bool) {
	lit, ok := r.number(true)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// floats reads an array of number literals into a []float32, each by
// strconv.ParseFloat(lit, 32) as encoding/json does. rows·cols, when
// both are positive, presizes the slice if it fits what is left of one
// budget shared by every array of the body: len(b)/2+1 floats, as many
// as the whole body can send at two bytes or more each. So the extents
// a body merely claims, over however many elements, cannot together
// reserve more than it sent; an array left unsized grows as its
// elements arrive.
func (r *wireReader) floats(rows, cols int) ([]float32, bool) {
	if !r.next('[') {
		return nil, false
	}
	n := 0
	if left := len(r.b)/2 + 1 - r.presized; rows > 0 && cols > 0 && rows <= left/cols {
		n = rows * cols
		r.presized += n
	}
	out := make([]float32, 0, n)
	if r.next(']') {
		return out, true
	}
	for {
		lit, ok := r.number(false)
		if !ok {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return nil, false
		}
		out = append(out, float32(f))
		if !r.next(',') {
			return out, r.next(']')
		}
	}
}

// read reads one GEMMRequest object into g.
func (g *GEMMRequest) read(r *wireReader) bool {
	return r.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "m":
			g.M, ok = r.int()
		case "n":
			g.N, ok = r.int()
		case "k":
			g.K, ok = r.int()
		case "a":
			g.A, ok = r.floats(g.M, g.K)
		case "b":
			g.B, ok = r.floats(g.K, g.N)
		case "c":
			g.C, ok = r.floats(g.M, g.N)
		case "deadlineMs":
			g.DeadlineMs, ok = r.int()
		}
		return ok
	})
}

// read reads one BatchRequest object into q. A repeated "elements" key
// is declined: encoding/json decodes the second array into the first
// one's elements in place, merging their fields.
func (q *BatchRequest) read(r *wireReader) bool {
	seen := false
	return r.object(func(key []byte) bool {
		if string(key) != "elements" || seen || !r.next('[') {
			return false
		}
		seen = true
		q.Elements = []GEMMRequest{}
		if r.next(']') {
			return true
		}
		for {
			q.Elements = append(q.Elements, GEMMRequest{})
			if !q.Elements[len(q.Elements)-1].read(r) {
				return false
			}
			if !r.next(',') {
				return r.next(']')
			}
		}
	})
}

// read reads one MultiplyResponse object into mr; m·n presizes C.
func (mr *MultiplyResponse) read(r *wireReader, m, n int) bool {
	return r.object(func(key []byte) bool {
		if string(key) != "c" {
			return false
		}
		var ok bool
		mr.C, ok = r.floats(m, n)
		return ok
	})
}

// read reads one successful BatchLine object into l; an error line is
// declined.
func (l *BatchLine) read(r *wireReader) bool {
	return r.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "index":
			l.Index, ok = r.int()
		case "c":
			l.C, ok = r.floats(0, 0)
		}
		return ok
	})
}

// bufs recycles the codec's byte buffers: a body buffer once its
// values are copied out, a response buffer once it is written. A buffer
// grown past maxPooled is left to the collector.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooled = 1 << 24

func getBuf() *[]byte { return bufs.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		bufs.Put(bp)
	}
}

// readBody reads r to EOF into b[:0], doubling b as it fills.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(512, cap(b)))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// decodeFirst reads body whole and decodes its first JSON value, as
// json.NewDecoder(body).Decode would: by read when the one-pass reader
// accepts, else by json.Decoder over the same bytes. Bytes after the
// first value are ignored. json.Decoder stops reading at the end of the
// value, so a read error after a complete value failed nothing; the
// fallback sees the error only where it would have read past the bytes
// that arrived.
func decodeFirst[T any](body io.Reader, read func(*T, *wireReader) bool) (*T, error) {
	bp := getBuf()
	defer putBuf(bp)
	buf, readErr := readBody(body, *bp)
	*bp = buf
	v := new(T)
	if read(v, &wireReader{b: buf}) {
		return v, nil
	}
	*v = *new(T)
	var src io.Reader = bytes.NewReader(buf)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return v, json.NewDecoder(src).Decode(v)
}

// decodeLine decodes one batch line as json.Unmarshal would: only
// whitespace may follow the value.
func decodeLine(data []byte) (BatchLine, error) {
	var l BatchLine
	if r := (wireReader{b: data}); l.read(&r) && r.end() {
		return l, nil
	}
	l = BatchLine{}
	err := json.Unmarshal(data, &l)
	return l, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
