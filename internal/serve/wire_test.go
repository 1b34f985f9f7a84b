package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"autogemm/internal/refgemm"
)

// The wire codec's differential: encoding/json is the oracle for every
// byte the one-pass encoder writes and every value the one-pass reader
// returns.

// sameFloats compares by bits, nil-ness included.
func sameFloats(x, y []float32) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

func sameGEMM(x, y *GEMMRequest) bool {
	return x.M == y.M && x.N == y.N && x.K == y.K && x.DeadlineMs == y.DeadlineMs &&
		sameFloats(x.A, y.A) && sameFloats(x.B, y.B) && sameFloats(x.C, y.C)
}

func sameBatch(x, y *BatchRequest) bool {
	if (x.Elements == nil) != (y.Elements == nil) || len(x.Elements) != len(y.Elements) {
		return false
	}
	for i := range x.Elements {
		if !sameGEMM(&x.Elements[i], &y.Elements[i]) {
			return false
		}
	}
	return true
}

func sameLine(x, y *BatchLine) bool {
	return x.Index == y.Index && x.Error == y.Error && x.Status == y.Status && sameFloats(x.C, y.C)
}

// wireValues draws n floats: random finite bit patterns, values in
// [-1, 1), and the edges of encoding/json's float32 format — ±0,
// subnormals, the %f/%e cut-offs at 1e-6 and 1e21, and the range ends.
func wireValues(rng *rand.Rand, n int) []float32 {
	edges := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-40, 1e-7, -1e-7,
		1e-6, math.Nextafter32(1e-6, 0), 3e38, -3e38, math.MaxFloat32, -math.MaxFloat32,
		1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, math.MaxFloat32), -1e21,
		1, -1, 0.1, 123456789, 1e-9,
	}
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = edges[rng.Intn(len(edges))]
		case 1:
			out[i] = float32(rng.Float64()*2 - 1)
		default:
			for {
				x := math.Float32frombits(rng.Uint32())
				if !math.IsInf(float64(x), 0) && !math.IsNaN(float64(x)) {
					out[i] = x
					break
				}
			}
		}
	}
	return out
}

// jsonEncoded is what json.Encoder writes for v: json.Marshal's bytes
// and a newline.
func jsonEncoded(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRoundTrip: each encoder writes json.Marshal's bytes for
// random bodies, the reader accepts everything the encoders write and
// returns the values bit for bit, and a non-finite value makes the
// encoders decline.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gemm := func() GEMMRequest {
		m, n, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		g := GEMMRequest{M: m, N: n, K: k, A: wireValues(rng, m*k), B: wireValues(rng, k*n)}
		switch rng.Intn(3) {
		case 0:
			g.C = wireValues(rng, m*n)
		case 1:
			g.C = []float32{} // omitted, like nil
		}
		if rng.Intn(2) == 0 {
			g.DeadlineMs = rng.Intn(1000) - 10
		}
		return g
	}

	for trial := 0; trial < 300; trial++ {
		g := gemm()
		q := BatchRequest{Elements: make([]GEMMRequest, trial%4)}
		for i := range q.Elements {
			q.Elements[i] = gemm()
		}
		mr := MultiplyResponse{C: wireValues(rng, trial%40)}
		line := BatchLine{Index: rng.Intn(300), C: mr.C}
		if trial%7 == 0 {
			line.C = nil
		}

		for _, v := range []wireBody{&g, &q, &mr, &line} {
			got, ok := v.appendJSON(nil)
			want, err := json.Marshal(v)
			if !ok || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T encoder: ok=%v\n got %s\nwant %s (%v)", v, ok, got, want, err)
			}
		}

		body, err := marshal(&g)
		if err != nil {
			t.Fatal(err)
		}
		r := wireReader{b: body}
		if !new(GEMMRequest).read(&r) {
			t.Fatalf("reader declined a GEMMRequest it wrote: %s", body)
		}
		gotG, err := decodeFirst(bytes.NewReader(body), (*GEMMRequest).read)
		if err != nil {
			t.Fatal(err)
		}
		wantG := g
		if len(g.C) == 0 {
			wantG.C = nil // omitempty
		}
		if !sameGEMM(gotG, &wantG) {
			t.Fatalf("GEMMRequest round trip: got %+v, want %+v", gotG, wantG)
		}

		if body, err = marshal(&q); err != nil {
			t.Fatal(err)
		}
		if r = (wireReader{b: body}); !new(BatchRequest).read(&r) {
			t.Fatalf("reader declined a BatchRequest it wrote: %s", body)
		}
		var wantQ BatchRequest
		if err := json.Unmarshal(body, &wantQ); err != nil {
			t.Fatal(err)
		}
		if gotQ, err := decodeFirst(bytes.NewReader(body), (*BatchRequest).read); err != nil || !sameBatch(gotQ, &wantQ) {
			t.Fatalf("BatchRequest round trip: got %+v (%v), want %+v", gotQ, err, wantQ)
		}

		resp := jsonEncoded(t, &mr)
		if r = (wireReader{b: resp}); !new(MultiplyResponse).read(&r, 3, 5) {
			t.Fatalf("reader declined a MultiplyResponse it wrote: %s", resp)
		}
		if gotR, err := decodeFirst(bytes.NewReader(resp), func(v *MultiplyResponse, r *wireReader) bool {
			return v.read(r, 3, 5)
		}); err != nil || !sameFloats(gotR.C, mr.C) {
			t.Fatalf("MultiplyResponse round trip: got %v (%v), want %v", gotR, err, mr.C)
		}

		resp = jsonEncoded(t, &line)
		if r = (wireReader{b: resp}); !new(BatchLine).read(&r) || !r.end() {
			t.Fatalf("reader declined a BatchLine it wrote: %s", resp)
		}
		wantL := line
		if len(line.C) == 0 {
			wantL.C = nil // omitempty
		}
		if gotL, err := decodeLine(resp); err != nil || !sameLine(&gotL, &wantL) {
			t.Fatalf("BatchLine round trip: got %+v (%v), want %+v", gotL, err, wantL)
		}
	}

	// Declined: non-finite values, the nils encoding/json writes as null,
	// and error lines. marshal then answers exactly as json.Marshal.
	declined := []wireBody{
		&GEMMRequest{M: 1, N: 1, K: 1, B: []float32{1}},
		&BatchRequest{},
		&BatchRequest{Elements: []GEMMRequest{{M: 1, N: 1, K: 1, A: []float32{1}}}},
		&MultiplyResponse{},
		&BatchLine{Index: 2, Error: "serve: admission", Status: 429},
		&BatchLine{Index: 2, Status: 200},
	}
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		xs := []float32{1, bad, 2}
		g := GEMMRequest{M: 1, N: 1, K: 3, A: []float32{1, 2, 3}, B: xs}
		ok := GEMMRequest{M: 1, N: 1, K: 1, A: []float32{1}, B: []float32{2}}
		declined = append(declined, &g, &GEMMRequest{A: xs, B: xs}, &GEMMRequest{A: []float32{}, B: []float32{}, C: xs},
			&BatchRequest{Elements: []GEMMRequest{ok, g}}, &MultiplyResponse{C: xs}, &BatchLine{C: xs})
	}
	for _, v := range declined {
		if b, ok := v.appendJSON(nil); ok {
			t.Errorf("%T encoder took %+v as %s", v, v, b)
		}
		want, wantErr := json.Marshal(v)
		if got, err := marshal(v); !bytes.Equal(got, want) || (err == nil) != (wantErr == nil) ||
			err != nil && err.Error() != wantErr.Error() {
			t.Errorf("marshal(%+v) = %s, %v; json.Marshal: %s, %v", v, got, err, want, wantErr)
		}
	}
}

// FuzzWireDecode: on any bytes, each of the four readers either
// declines or returns exactly what encoding/json returns at its call
// site, floats compared by bits, and allocates no float slice beyond
// what the body can hold. A declined body goes to encoding/json itself
// (TestWireFallback), so only acceptances need the oracle.
func FuzzWireDecode(f *testing.F) {
	g := GEMMRequest{M: 2, N: 3, K: 2, A: []float32{1, -0.5, 3e38, 1e-7}, B: []float32{0, 1, 2, 3, 4, 5}}
	for _, v := range []interface{}{
		&g,
		&GEMMRequest{M: 1, N: 1, K: 1, A: []float32{1}, B: []float32{2}, C: []float32{3}, DeadlineMs: 40},
		&BatchRequest{Elements: []GEMMRequest{g, g}},
		&MultiplyResponse{C: []float32{1, 2.5, -1e-9}},
		&BatchLine{Index: 3, C: []float32{1, 2}},
		&BatchLine{Index: 4, Error: "serve: deadline", Status: 504},
	} {
		data, err := marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 2, 3)
		f.Add([]byte(string(data)+"\n"), 1<<40, 1<<40)
		f.Add([]byte(string(data)+" trailing"), 0, 0)
	}
	for _, s := range []string{
		``, `{}`, ` { "m" : 2 ,` + "\n\t" + `"a" : [ 1 , 2 ] , "k":1 }` + "\r\n",
		`{"m":1,"m":2,"a":[1,2,3],"a":[4]}`, `{"c":[1],"c":[]}`,
		`{"elements":[{"m":1,"a":[1]}],"elements":[{"n":2}]}`, `{"elements":[]}`, `{"elements":null}`,
		`{"a":null}`, `{"m":"1"}`, `{"M":1}`, `{"\u006d":1}`, `{"x":1}`, `{"a":[1e39]}`, `{"a":[-1e39]}`,
		`{"a":[1e-50]}`, `{"a":[-0]}`, `{"a":[-0.0e+0]}`, `{"m":1.0}`, `{"m":-0}`, `{"m":1e2}`,
		`{"m":99999999999999999999}`, `{"a":[01]}`, `{"a":[.5]}`, `{"a":[5.]}`, `{"a":[+1]}`,
		`{"a":[1,]}`, `{"a":[1 2]}`, `{"a":[Infinity]}`, `{"a":[0x10]}`, `{"c":[1]}}`, `{"c":[1]} x`,
		`{"index":1}x`, `{"index":0,"error":"x","status":422}`, `{"m":1` + strings.Repeat(" ", 8),
		strings.Repeat("[", 10001), `{"elements":[{"a":` + strings.Repeat("[", 10001),
	} {
		f.Add([]byte(s), 7, 9)
	}

	lie := `{"m":9,"n":9,"k":9,"a":[],"b":[],"c":[]}`
	f.Add([]byte(`{"elements":[`+strings.Repeat(lie+",", 15)+lie+`]}`), 9, 9)
	f.Add([]byte(`{"m":9,"k":9,"a":[],"a":[],"a":[],"a":[],"a":[1,2,3,4,5,6,7,8,9,10]}`), 9, 9)

	f.Fuzz(func(t *testing.T, data []byte, m, n int) {
		bounded := func(xs ...[]float32) {
			if c, l := floatCaps(xs...); c > len(data)/2+1+3*l {
				t.Fatalf("a %d-byte body sending %d floats allocated %d", len(data), l, c)
			}
		}

		r := wireReader{b: data}
		var g GEMMRequest
		if g.read(&r) {
			bounded(g.A, g.B, g.C)
			var want GEMMRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil || !sameGEMM(&g, &want) {
				t.Fatalf("GEMMRequest reader took %q as %+v; encoding/json: %+v, %v", data, g, want, err)
			}
		}

		r = wireReader{b: data}
		var q BatchRequest
		if q.read(&r) {
			bounded(batchFloats(&q)...)
			var want BatchRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil || !sameBatch(&q, &want) {
				t.Fatalf("BatchRequest reader took %q as %+v; encoding/json: %+v, %v", data, q, want, err)
			}
		}

		r = wireReader{b: data}
		var mr MultiplyResponse
		if mr.read(&r, m, n) {
			bounded(mr.C)
			var want MultiplyResponse
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil || !sameFloats(mr.C, want.C) {
				t.Fatalf("MultiplyResponse reader took %q as %v; encoding/json: %v, %v", data, mr.C, want.C, err)
			}
		}

		r = wireReader{b: data}
		var line BatchLine
		if line.read(&r) && r.end() {
			bounded(line.C)
			var want BatchLine
			if err := json.Unmarshal(data, &want); err != nil || !sameLine(&line, &want) {
				t.Fatalf("BatchLine reader took %q as %+v; encoding/json: %+v, %v", data, line, want, err)
			}
		}
	})
}

// floatCaps sums the capacities and lengths of xs.
func floatCaps(xs ...[]float32) (caps, lens int) {
	for _, x := range xs {
		caps += cap(x)
		lens += len(x)
	}
	return caps, lens
}

func batchFloats(q *BatchRequest) [][]float32 {
	var xs [][]float32
	for i := range q.Elements {
		e := &q.Elements[i]
		xs = append(xs, e.A, e.B, e.C)
	}
	return xs
}

// TestWireClaimedExtents: extents a body claims, repeated over many
// batch elements with empty arrays, reserve no more floats in all than
// the body could have sent; an honest element after the budget is spent
// still decodes, grown as its elements arrive.
func TestWireClaimedExtents(t *testing.T) {
	for _, lie := range []string{
		`{"m":1000000,"n":1000000,"k":1000000,"a":[],"b":[],"c":[]}`,
		`{"m":40,"n":40,"k":40,"a":[],"b":[],"c":[]}`,
	} {
		honest := `{"m":1,"n":2,"k":2,"a":[1,2],"b":[3,4,5,6]}`
		body := `{"elements":[` + strings.Repeat(lie+",", 300) + honest + `]}`
		q, err := decodeFirst(strings.NewReader(body), (*BatchRequest).read)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Elements) != 301 || !sameGEMM(&q.Elements[300], &GEMMRequest{M: 1, N: 2, K: 2, A: []float32{1, 2}, B: []float32{3, 4, 5, 6}}) {
			t.Fatalf("decoded %d elements, last %+v", len(q.Elements), q.Elements[len(q.Elements)-1])
		}
		if c, l := floatCaps(batchFloats(q)...); c > len(body)/2+1+3*l {
			t.Errorf("a %d-byte body sending %d floats allocated %d", len(body), l, c)
		}
	}
}

// TestWireFallback: where the reader declines, the call sites answer
// exactly as encoding/json does, error text included, even after the
// reader filled part of the value; a read error is reported only where
// json.Decoder would have read past the bytes that arrived.
func TestWireFallback(t *testing.T) {
	errCut := errors.New("connection reset")
	for _, body := range []string{
		``, ` `, `{"m":5,"a":[1,2],"x":1}`, `{"m":5,"a":[1,2],"M":7}`, `{"m":5,"a":[1,"2"]}`,
		`{"m":5,"a":[1e39]}`, `{"m":5,"a":[1,2]`, `{"m":5.5}`, `{"a":null,"m":2}`,
		`{"elements":[{"m":1,"a":[1]}],"elements":[{"n":2}]}`, `{"elements":[{"m":1},{"M":2}]}`,
		`{"c":[1,2],"c":null}`, `{"index":3,"c":[1],"error":"x","status":504}`, `{"index":3,"c":[1]} x`,
		`{"c":[1]}`, `{"elements":[]}`, strings.Repeat("[", 10001),
	} {
		for _, cut := range []bool{false, true} {
			src := func() io.Reader {
				if cut {
					return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errCut))
				}
				return strings.NewReader(body)
			}
			var wantG GEMMRequest
			wantErr := json.NewDecoder(src()).Decode(&wantG)
			gotG, err := decodeFirst(src(), (*GEMMRequest).read)
			checkFallback(t, body, "GEMMRequest", err, wantErr, err == nil && !sameGEMM(gotG, &wantG))

			var wantQ BatchRequest
			wantErr = json.NewDecoder(src()).Decode(&wantQ)
			gotQ, err := decodeFirst(src(), (*BatchRequest).read)
			checkFallback(t, body, "BatchRequest", err, wantErr, err == nil && !sameBatch(gotQ, &wantQ))

			var wantR MultiplyResponse
			wantErr = json.NewDecoder(src()).Decode(&wantR)
			gotR, err := decodeFirst(src(), func(v *MultiplyResponse, r *wireReader) bool { return v.read(r, 1, 2) })
			checkFallback(t, body, "MultiplyResponse", err, wantErr, err == nil && !sameFloats(gotR.C, wantR.C))
		}
		var wantL BatchLine
		wantErr := json.Unmarshal([]byte(body), &wantL)
		gotL, err := decodeLine([]byte(body))
		checkFallback(t, body, "BatchLine", err, wantErr, err == nil && !sameLine(&gotL, &wantL))
	}
}

func checkFallback(t *testing.T, body, site string, err, want error, differs bool) {
	t.Helper()
	if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
		t.Errorf("%s %.40q: error %v, encoding/json's %v", site, body, err, want)
	} else if differs {
		t.Errorf("%s %.40q: value differs from encoding/json's", site, body)
	}
}

// BenchmarkWire times the one-pass codec against encoding/json on
// serve-mixed's bodies: the 64×48×24 interactive request and an
// 8-element 96³ batch request.
func BenchmarkWire(b *testing.B) {
	gemm := func(m, n, k int, seed uint64) GEMMRequest {
		g := GEMMRequest{M: m, N: n, K: k, A: make([]float32, m*k), B: make([]float32, k*n)}
		refgemm.Fill(g.A, m, k, k, seed)
		refgemm.Fill(g.B, k, n, n, seed+1)
		return g
	}
	interactive := gemm(64, 48, 24, 1)
	batch := BatchRequest{Elements: make([]GEMMRequest, 8)}
	for i := range batch.Elements {
		batch.Elements[i] = gemm(96, 96, 96, uint64(10+i))
	}

	for _, body := range []struct {
		name string
		v    interface{}
		read func([]byte) error // the call site's decode
		json func([]byte) error // the json.Decoder it replaced
	}{
		{"interactive", &interactive, func(data []byte) error {
			_, err := decodeFirst(bytes.NewReader(data), (*GEMMRequest).read)
			return err
		}, func(data []byte) error {
			return json.NewDecoder(bytes.NewReader(data)).Decode(new(GEMMRequest))
		}},
		{"batch", &batch, func(data []byte) error {
			_, err := decodeFirst(bytes.NewReader(data), (*BatchRequest).read)
			return err
		}, func(data []byte) error {
			return json.NewDecoder(bytes.NewReader(data)).Decode(new(BatchRequest))
		}},
	} {
		data, err := json.Marshal(body.v)
		if err != nil {
			b.Fatal(err)
		}
		encodes := map[string]func(interface{}) ([]byte, error){"wire": marshal, "json": json.Marshal}
		decodes := map[string]func([]byte) error{"wire": body.read, "json": body.json}
		for _, codec := range []string{"wire", "json"} {
			b.Run(body.name+"/decode/"+codec, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := decodes[codec](data); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(body.name+"/encode/"+codec, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := encodes[codec](body.v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
